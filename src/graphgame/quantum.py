"""EPR-pair strategies: exact win probabilities and angle optimization.

Resource model: every vertex owned by exactly two players carries one
maximally-entangled qubit pair, one half per owner.  A strategy gives each
player a measurement direction per (pair vertex, own input) -- rank-1
projective measurements in a single plane, so one angle each -- plus a
wiring that turns measured outcomes into the per-vertex output signs.  An
output expression is a fixed sign times the product of a subset of the
player's own measured outcomes at that input; an empty subset is a
deterministic sign.

Outcome statistics for one pair measured along ``theta_a`` and ``theta_b``:

    P(a, b) = (1 + a * b * cos(theta_a - theta_b)) / 4

with uniform marginals; a half that nobody measures behaves as an
independent fair sign.  Winning probabilities are exact sums of one
compiled correlator polynomial per strategy, ``sum coeff * prod
cos(theta_a - theta_b)``: substituting the wiring into the referee's
checks (``model.referee_checks``) turns them into parity constraints on the
measured outcomes, and their GF(2) solution space gives every coefficient
in closed form, with no enumeration of outcome tuples.  So every optimizer
result is a genuine lower bound on the game's quantum value, never an
estimate.

Vertices owned by three or more players have no pair here and are rejected
by default; passing ``allow_multiway=True`` treats them as unentangled
(deterministic outputs only), which is the honest model when such sharing
exists and is what the command-line tools use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iter_product
from typing import Mapping, Optional, Sequence

from .classical import DeterministicStrategy, _best_complementary_pair, target_value_from_tables
from .model import (
    ConsistencyPayoff,
    GraphGameError,
    GraphicGame,
    TargetPayoff,
    _substream,
    bits_key,
    referee_checks,
    weighted_inputs,
)

DEFAULT_PAIR_BUDGET = 12

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


class MultiwaySharedVertexError(GraphGameError):
    """A vertex is owned by three or more players; no single pair fits it."""

    def __init__(self, vertices: Sequence[str]):
        super().__init__(
            "vertices shared by three or more players: " + ", ".join(sorted(vertices))
        )
        self.vertices = tuple(sorted(vertices))


class PairBudgetError(GraphGameError):
    """More pairs than the exact evaluator is allowed to compile."""

    def __init__(self, pairs: int, budget: int):
        super().__init__(f"game has {pairs} pairs, budget is {budget}")
        self.pairs = pairs
        self.budget = budget


class StrategyError(GraphGameError):
    """A quantum strategy is malformed for the given game."""


def epr_correlator(theta_a: float, theta_b: float) -> float:
    """Expectation of the product of the two outcomes: cos(theta_a - theta_b)."""
    return math.cos(theta_a - theta_b)


def pair_outcome_distribution(
    theta_a: Optional[float], theta_b: Optional[float]
) -> tuple[float, float, float, float]:
    """Probabilities of (+,+), (+,-), (-,+), (-,-) for one pair.

    Passing None for a side means that half is not measured; its recorded
    sign is then an independent fair coin.
    """
    if theta_a is None or theta_b is None:
        return (0.25, 0.25, 0.25, 0.25)
    c = math.cos(theta_a - theta_b)
    same = (1.0 + c) / 4.0
    diff = (1.0 - c) / 4.0
    return (same, diff, diff, same)


@dataclass(frozen=True)
class PairModel:
    """One entangled pair per two-owner vertex, sorted by vertex id."""

    pairs: tuple[tuple[str, int, int], ...]
    multiway: tuple[str, ...] = ()


def build_pair_model(game: GraphicGame, allow_multiway: bool = False) -> PairModel:
    owners: dict[str, set[int]] = {}
    for i in game.players:
        for x in (0, 1):
            for v in game.owned(i, x):
                owners.setdefault(v, set()).add(i)
    pairs = []
    multiway = []
    for v in sorted(owners):
        who = sorted(owners[v])
        if len(who) == 2:
            pairs.append((v, who[0], who[1]))
        elif len(who) >= 3:
            multiway.append(v)
    if multiway and not allow_multiway:
        raise MultiwaySharedVertexError(multiway)
    return PairModel(pairs=tuple(pairs), multiway=tuple(multiway))


@dataclass(frozen=True)
class OutputExpr:
    """sign * product of the player's measured outcomes on ``refs``."""

    sign: int
    refs: tuple[str, ...] = ()


@dataclass(frozen=True)
class QuantumStrategy:
    """Measurement angles keyed (player, vertex, input) plus output wiring.

    An absent angle key means the player does not measure that half at that
    input.  Wiring keys are (player, input, vertex) over owned vertices.
    """

    angles: Mapping[tuple[int, str, int], float]
    wiring: Mapping[tuple[int, int, str], OutputExpr]

    def with_angles(self, angles: Mapping[tuple[int, str, int], float]) -> "QuantumStrategy":
        return QuantumStrategy(angles=dict(angles), wiring=dict(self.wiring))


@dataclass(frozen=True)
class QuantumValueResult:
    value: float
    strategy: QuantumStrategy
    restarts_used: int
    converged: bool


@dataclass(frozen=True)
class OptimizeOptions:
    restarts: int = 20
    tolerance: float = 1e-12
    seed: int = 0
    pair_budget: int = DEFAULT_PAIR_BUDGET
    allow_multiway: bool = False
    max_sweeps: int = 40


def validate_strategy(game: GraphicGame, strategy: QuantumStrategy, model: PairModel) -> None:
    pair_owner = {v: (a, b) for v, a, b in model.pairs}
    measured: dict[tuple[int, int], set[str]] = {(i, x): set() for i in game.players for x in (0, 1)}
    present: dict[tuple[int, int], set[str]] = {key: set() for key in measured}
    for (i, v, x), theta in strategy.angles.items():
        if v not in pair_owner:
            raise StrategyError(f"angle on {v!r}: vertex carries no pair")
        if i not in pair_owner[v]:
            raise StrategyError(f"angle on {v!r}: player {i} holds no half of it")
        if x not in (0, 1):
            raise StrategyError(f"angle input must be a bit, got {x!r}")
        if not math.isfinite(theta):
            raise StrategyError(f"angle of player {i} on {v!r} at input {x} is {theta!r}, not finite")
        measured[(i, x)].add(v)
    for i, x, v in strategy.wiring:
        if (i, x) not in present:
            raise StrategyError(f"wiring for player {i!r} at input {x!r}: no such player or input")
        present[(i, x)].add(v)
    for (i, x), wired in present.items():
        owned = game.owned(i, x)
        if wired != owned:
            raise StrategyError(
                f"player {i} at input {x}: wiring must cover exactly the owned vertices"
            )
        for v in owned:
            expr = strategy.wiring[(i, x, v)]
            if expr.sign not in (1, -1):
                raise StrategyError(f"wiring sign must be +1/-1 on {v!r}")
            for r in expr.refs:
                if r not in measured[(i, x)]:
                    raise StrategyError(
                        f"player {i} at input {x} wires {v!r} to unmeasured {r!r}"
                    )


def build_strategy(
    game: GraphicGame, allow_multiway: bool = False
) -> tuple[QuantumStrategy, PairModel]:
    """The optimizer's wiring template, with all angles initialised to 0.

    Per counterpart the two owners agree on one designated pair (the
    smallest shared pair vertex) and copy its outcome to every region
    vertex; a high-block player with a leftover odd outcome product routes
    it onto one of its private vertices so the total product is
    deterministically +1.
    """
    model = build_pair_model(game, allow_multiway=allow_multiway)
    pair_owner = {v: (a, b) for v, a, b in model.pairs}
    shared = set(pair_owner) | set(model.multiway)

    designated: dict[frozenset[int], str] = {}
    for v, a, b in model.pairs:
        key = frozenset((a, b))
        if key not in designated or v < designated[key]:
            designated[key] = v

    angles: dict[tuple[int, str, int], float] = {}
    wiring: dict[tuple[int, int, str], OutputExpr] = {}
    for i in game.players:
        for x in (0, 1):
            owned = sorted(game.owned(i, x))
            refs_used: dict[str, int] = {}
            exprs: dict[str, OutputExpr] = {}
            for v in owned:
                if v in pair_owner and i in pair_owner[v]:
                    a, b = pair_owner[v]
                    j = b if i == a else a
                    ref = designated[frozenset((i, j))]
                    exprs[v] = OutputExpr(1, (ref,))
                    refs_used[ref] = refs_used.get(ref, 0) + 1
                else:
                    exprs[v] = OutputExpr(1, ())
            if i > game.m:
                odd = tuple(sorted(r for r, c in refs_used.items() if c % 2))
                if odd:
                    slack = next((v for v in owned if v not in shared), None)
                    if slack is not None:
                        exprs[slack] = OutputExpr(1, odd)
            for v, expr in exprs.items():
                wiring[(i, x, v)] = expr
                for r in expr.refs:
                    angles[(i, r, x)] = 0.0
    strategy = QuantumStrategy(angles=angles, wiring=wiring)
    validate_strategy(game, strategy, model)
    return strategy, model


def deterministic_as_quantum(game: GraphicGame, det: DeterministicStrategy) -> QuantumStrategy:
    """Embed a deterministic strategy: no measurements, fixed signs."""
    wiring = {
        (i, x, v): OutputExpr(det.signs[(i, x, v)], ())
        for i in game.players
        for x in (0, 1)
        for v in game.owned(i, x)
    }
    return QuantumStrategy(angles={}, wiring=wiring)


def _parity_constraints(
    game: GraphicGame,
    wiring: Mapping[tuple[int, int, str], OutputExpr],
    x: Sequence[int],
    bit: Mapping[tuple[int, str], int],
) -> list[tuple[int, int]]:
    """``referee_checks`` at ``x`` with each side's wired outputs substituted.

    Outcome bit ``o`` stands for the sign ``(-1)**o`` of the measured half
    ``(player, vertex)`` whose bitmask is ``bit[...]``, so every wired output
    is ``sign * (-1)**popcount(outcomes & mask)``.  Each returned ``(mask,
    parity)`` holds when ``popcount(outcomes & mask)`` has that parity, and
    the round is won iff all of them hold.
    """
    constraints = []
    for sides, parity in referee_checks(game, x):
        mask = 0
        for i, verts in sides:
            for v in verts:
                expr = wiring[(i, x[i - 1], v)]
                parity ^= expr.sign < 0
                for r in expr.refs:
                    mask ^= bit[(i, r)]
        constraints.append((mask, parity))
    return constraints


def _reduce(basis: Mapping[int, tuple[int, int]], mask: int, parity: int) -> tuple[int, int]:
    """Eliminate ``mask`` against an echelon basis keyed by leading bit.

    The mask comes back 0 iff it lies in the basis span; ``parity`` is then
    the parity its character takes on every solution.
    """
    while mask:
        row = basis.get(mask.bit_length() - 1)
        if row is None:
            break
        mask ^= row[0]
        parity ^= row[1]
    return mask, parity


def _echelon(constraints) -> Optional[dict[int, tuple[int, int]]]:
    """GF(2) echelon basis of the constraints; None when they contradict."""
    basis: dict[int, tuple[int, int]] = {}
    for mask, parity in constraints:
        mask, parity = _reduce(basis, mask, parity)
        if mask:
            basis[mask.bit_length() - 1] = (mask, parity)
        elif parity:
            return None
    return basis


class _Evaluator:
    """The strategy's winning probability as a polynomial in the correlators.

    At input ``x`` with weight ``w`` the won outcomes of the measured halves
    are the solutions of a GF(2) system of parity constraints, an affine
    subspace of rank ``r``.  Writing each pair's outcome law as
    ``(1 + a*b*c)/4`` and expanding, the subset ``S`` of fully measured pairs
    gets the coefficient ``w * 4**-both * 2**-single * sum over wins of the
    character of S``; that character sum over an affine subspace is
    ``+-2**(sides - r)`` when the character is constant on it (its mask lies
    in the constraints' span) and 0 otherwise, so the coefficient is
    ``+-w * 2**-r`` or 0.  Equal monomials merge across inputs.  A slot
    enters at most one correlator of any monomial, so along one angle the
    value is ``a*cos(t) + b*sin(t) + c`` (``sinusoid``).
    """

    def __init__(self, game: GraphicGame, strategy: QuantumStrategy, model: PairModel):
        self.slots: list[tuple[int, str, int]] = sorted(strategy.angles)
        index = {k: i for i, k in enumerate(self.slots)}
        # Monomial (its correlators' slot pairs, in pair order) -> coefficient.
        coeffs: dict[tuple[tuple[int, int], ...], float] = {}
        for x, w in weighted_inputs(game.distribution, game.n):
            bit: dict[tuple[int, str], int] = {}
            full: list[tuple[tuple[int, int], int]] = []  # (slot pair, mask of both halves)
            for v, a, b in model.pairs:
                ia = index.get((a, v, x[a - 1]))
                ib = index.get((b, v, x[b - 1]))
                for player, slot in ((a, ia), (b, ib)):
                    if slot is not None:
                        bit[(player, v)] = 1 << len(bit)
                if ia is not None and ib is not None:
                    full.append(((ia, ib), bit[(a, v)] | bit[(b, v)]))
            basis = _echelon(_parity_constraints(game, strategy.wiring, x, bit))
            if basis is None:
                continue
            scale = w / 2.0 ** len(basis)
            for subset in range(1 << len(full)):
                chosen = [(pair, m) for k, (pair, m) in enumerate(full) if subset >> k & 1]
                rest, parity = _reduce(basis, sum(m for _, m in chosen), 0)
                if not rest:
                    key = tuple(pair for pair, _ in chosen)
                    coeffs[key] = coeffs.get(key, 0.0) + (-scale if parity else scale)
        kept = [(key, c) for key, c in coeffs.items() if c != 0.0]
        self.correlators: list[tuple[int, int]] = list(
            dict.fromkeys(pair for key, _ in kept for pair in key)
        )
        corr_index = {pair: k for k, pair in enumerate(self.correlators)}
        self.terms: list[tuple[float, tuple[int, ...]]] = [
            (c, tuple(corr_index[pair] for pair in key)) for key, c in kept
        ]
        # Per slot: (partner slot, [(coefficient, the term's other correlators)])
        # for each correlator that holds the slot.
        touching: list[dict[int, list]] = [{} for _ in self.slots]
        for c, key in self.terms:
            for k in key:
                rest = tuple(j for j in key if j != k)
                sa, sb = self.correlators[k]
                touching[sa].setdefault(sb, []).append((c, rest))
                touching[sb].setdefault(sa, []).append((c, rest))
        self.touching = [list(t.items()) for t in touching]

    def _cosines(self, theta: Sequence[float]) -> list[float]:
        return [math.cos(theta[a] - theta[b]) for a, b in self.correlators]

    def value(self, theta: Sequence[float]) -> float:
        corr = self._cosines(theta)
        return math.fsum(c * math.prod([corr[k] for k in key]) for c, key in self.terms)

    def sinusoid(self, theta: Sequence[float], slot: int, value: float) -> tuple[float, float, float]:
        """``(a, b, c)`` with ``value(theta with slot at t) == a*cos(t) + b*sin(t) + c``.

        ``value`` must be ``value(theta)``; only the terms holding the slot
        are visited, and ``c`` is ``value`` minus their current sum.
        """
        corr = self._cosines(theta)
        a = b = 0.0
        for partner, terms in self.touching[slot]:
            r = 0.0
            for c, rest in terms:
                for k in rest:
                    c *= corr[k]
                r += c
            a += r * math.cos(theta[partner])
            b += r * math.sin(theta[partner])
        t = theta[slot]
        return a, b, value - (a * math.cos(t) + b * math.sin(t))


def exact_quantum_value(
    game: GraphicGame,
    strategy: QuantumStrategy,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    allow_multiway: bool = False,
) -> float:
    """Exact average winning probability of one fixed pair-measurement strategy."""
    if not isinstance(game.payoff, ConsistencyPayoff):
        raise GraphGameError("exact_quantum_value requires a consistency-mode game")
    model = build_pair_model(game, allow_multiway=allow_multiway)
    if len(model.pairs) > pair_budget:
        raise PairBudgetError(len(model.pairs), pair_budget)
    validate_strategy(game, strategy, model)
    ev = _Evaluator(game, strategy, model)
    theta = [strategy.angles[k] for k in ev.slots]
    return ev.value(theta)


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    h = b - a
    if h <= tol:
        mid = 0.5 * (a + b)
        return mid, f(mid)
    steps = max(1, int(math.ceil(math.log(tol / h) / math.log(_INVPHI))))
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(steps - 1):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INVPHI
            d = a + _INVPHI * h
            yd = f(d)
    return (c, yc) if yc > yd else (d, yd)


def _exact_step(theta: list[float], idx: int, a: float, b: float, c: float, current: float) -> float:
    """Move ``theta[idx]`` to the maximum of ``a*cos(t) + b*sin(t) + c``.

    That sinusoid is the value along the angle with every other angle
    fixed; its maximum ``c + hypot(a, b)`` sits at ``atan2(b, a)``.  The
    angle moves only when the maximum beats ``current``, so the ascent is
    monotone and ties keep the angle.  Returns the new value.
    """
    peak = c + math.hypot(a, b)
    if peak > current:
        theta[idx] = math.atan2(b, a) % (2.0 * math.pi)
        return peak
    return current


def _check_options(opts: OptimizeOptions) -> None:
    if opts.restarts < 1:
        raise GraphGameError(f"restarts must be at least 1, got {opts.restarts!r}")
    if opts.max_sweeps < 1:
        raise GraphGameError(f"max_sweeps must be at least 1, got {opts.max_sweeps!r}")
    if not (math.isfinite(opts.tolerance) and opts.tolerance >= 0.0):
        raise GraphGameError(f"tolerance must be finite and non-negative, got {opts.tolerance!r}")


def _ascend(ev: _Evaluator, theta: list[float], opts: OptimizeOptions) -> tuple[float, bool]:
    """Cyclic exact coordinate ascent; returns the exact value at the final angles."""
    value = ev.value(theta)
    if not theta:
        return value, True
    for _ in range(opts.max_sweeps):
        before = value
        for idx in range(len(theta)):
            value = _exact_step(theta, idx, *ev.sinusoid(theta, idx, value), value)
        if value - before < opts.tolerance:
            return ev.value(theta), True
    return ev.value(theta), False


def optimize_quantum(game: GraphicGame, options: OptimizeOptions | None = None) -> QuantumValueResult:
    """Multi-start coordinate ascent over measurement angles.

    The wiring stays fixed to the template of ``build_strategy``; only
    angles move.  All randomness flows from ``options.seed``, one
    independent substream per restart.  The returned value is exact for the
    returned strategy, hence a true lower bound.
    """
    opts = options or OptimizeOptions()
    _check_options(opts)
    if not isinstance(game.payoff, ConsistencyPayoff):
        raise GraphGameError("optimize_quantum requires a consistency-mode game")
    strategy, model = build_strategy(game, allow_multiway=opts.allow_multiway)
    if len(model.pairs) > opts.pair_budget:
        raise PairBudgetError(len(model.pairs), opts.pair_budget)
    ev = _Evaluator(game, strategy, model)
    k = len(ev.slots)

    def run(restart: int) -> tuple[float, int, list[float], bool]:
        theta = _substream(opts.seed, restart).uniform(0.0, 2.0 * math.pi, size=k).tolist()
        value, converged = _ascend(ev, theta, opts)
        return value, restart, theta, converged

    results = [run(r) for r in range(opts.restarts)]
    best = max(results, key=lambda r: (r[0], -r[1]))
    value, _, theta, converged = best
    angles = dict(zip(ev.slots, theta))
    return QuantumValueResult(
        value=value,
        strategy=strategy.with_angles(angles),
        restarts_used=opts.restarts,
        converged=converged,
    )


def closed_form_star_quantum(params) -> float:
    """Best pair-measurement value of the star game, by 1-D search.

    With q = 1-p and c = sqrt(2 - 4pq), the value is

        p_star / 2**(n1-1) * max_theta [ p (1 + c cos theta)**(n1-1)
                                         + q (1 + c sin theta)**(n1-1) ]

    where theta is confined to directions with c*cos(theta) <= 1 and
    c*sin(theta) <= 1 (the two branch observables have unit norm, so the
    unconstrained maximum is not physical once c > 1).
    """
    params._check_base()
    if params.n1 is None or params.n1 < 2:
        raise ValueError("star form needs n1 >= 2")
    p = params.p
    q = 1.0 - p
    n1 = params.n1
    c = math.sqrt(2.0 - 4.0 * p * q)
    reach = min(1.0, 1.0 / c)
    lo = math.acos(reach)
    hi = math.asin(reach)

    def f(theta: float) -> float:
        return p * (1.0 + c * math.cos(theta)) ** (n1 - 1) + q * (
            1.0 + c * math.sin(theta)
        ) ** (n1 - 1)

    if hi - lo <= 1e-15:
        best = f(0.5 * (lo + hi))
    else:
        grid = 256
        ts = [lo + (hi - lo) * k / grid for k in range(grid + 1)]
        vals = [f(t) for t in ts]
        k = max(range(len(ts)), key=lambda idx: vals[idx])
        a = ts[max(0, k - 1)]
        b = ts[min(len(ts) - 1, k + 1)]
        _, best = _golden_max(f, a, b, 1e-12)
        best = max(best, vals[k])
    return params.p_star * best / 2.0 ** (n1 - 1)


def unbalanced_chsh_has_advantage(p00: float, p01: float, p10: float, p11: float) -> bool:
    """Advantage test for a pair game with per-question prior {p00,p01,p10,p11}."""
    probs = (p00, p01, p10, p11)
    if any(p <= 0.0 for p in probs):
        raise GraphGameError("advantage condition undefined for zero probability entries")
    if abs(sum(probs) - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {sum(probs)!r}, not 1")
    if min(p10, p11) <= min(p00, p01):
        return (1.0 / p10 - 1.0 / p11) ** 2 - (1.0 / p00 + 1.0 / p01) ** 2 < 0.0
    return (1.0 / p00 - 1.0 / p01) ** 2 - (1.0 / p10 + 1.0 / p11) ** 2 < 0.0


def trig_power_mean_holds(angles: Sequence[float]) -> bool:
    """Geometric means of sin / cos never beat sin / cos of the mean angle.

    Checked with a 1e-12 slack so that exact equality cases pass.
    """
    if len(angles) < 2:
        raise GraphGameError("need at least two angles")
    for t in angles:
        if not (0.0 <= t <= math.pi / 2.0 + 1e-15):
            raise GraphGameError(f"angle {t!r} outside [0, pi/2]")
    s = len(angles)
    mean = math.fsum(angles) / s
    sin_gm = math.prod(math.sin(t) for t in angles) ** (1.0 / s)
    cos_gm = math.prod(math.cos(t) for t in angles) ** (1.0 / s)
    return sin_gm <= math.sin(mean) + 1e-12 and cos_gm <= math.cos(mean) + 1e-12


def target_quantum_probe(game: GraphicGame, options: OptimizeOptions | None = None) -> float:
    """Best found value of outcome-driven response strategies for a target game.

    Players measure every pair half they hold and answer from (own input,
    own outcomes) via response tables; tables are optimized by exact
    per-cell best response and angles by exact coordinate steps, since with
    the tables fixed the value is a sinusoid in each angle.  Every reported
    number is the exact value of a concrete strategy, so for injective
    targets it can never exceed the classical optimum.  Games without any
    two-owner vertex degenerate to the classical response search.
    """
    if not isinstance(game.payoff, TargetPayoff):
        raise GraphGameError("target_quantum_probe requires a target-mode game")
    opts = options or OptimizeOptions()
    _check_options(opts)
    model = build_pair_model(game, allow_multiway=True)
    tables = game.payoff.targets.tables
    if not model.pairs:
        return target_value_from_tables(tables, game.distribution, game.n)

    images = {i: sorted(set(tables[i].values())) for i in game.players}
    slots = sorted(
        (i, v, x) for v, a, b in model.pairs for i in (a, b) for x in (0, 1)
    )
    slot_index = {key: idx for idx, key in enumerate(slots)}
    weighted = [(x, bits_key(x), w) for x, w in weighted_inputs(game.distribution, game.n)]
    combos = list(_iter_product(*[((1, 1), (1, -1), (-1, 1), (-1, -1)) for _ in model.pairs]))

    def outcome_views(combo) -> dict[int, tuple[int, ...]]:
        # Each player's own outcomes, over the pairs it holds in pair order.
        return {
            i: tuple(
                combo[k][0] if i == a else combo[k][1]
                for k, (_, a, b) in enumerate(model.pairs)
                if i in (a, b)
            )
            for i in game.players
        }

    views = [outcome_views(c) for c in combos]

    def probs_for(x, theta) -> list[float]:
        out = [1.0]
        for v, a, b in model.pairs:
            c = math.cos(theta[slot_index[(a, v, x[a - 1])]] - theta[slot_index[(b, v, x[b - 1])]])
            q = (1.0 + c) * 0.25
            r = (1.0 - c) * 0.25
            out = [p * e for p in out for e in (q, r, r, q)]
        return out

    def value_of(tables_now, theta) -> float:
        total = 0.0
        for x, key, w in weighted:
            probs = probs_for(x, theta)
            for P, view in zip(probs, views):
                if all(
                    tables_now[i][(x[i - 1], view[i])] == tables[i][key]
                    for i in game.players
                ):
                    total += w * P
        return total

    def best_response(tables_now, theta, player) -> bool:
        changed = False
        for xbit in (0, 1):
            cells = sorted({view[player] for view in views})
            for cell in cells:
                score = {v: 0.0 for v in images[player]}
                for x, key, w in weighted:
                    if x[player - 1] != xbit:
                        continue
                    probs = probs_for(x, theta)
                    for P, view in zip(probs, views):
                        if view[player] != cell:
                            continue
                        if all(
                            tables_now[j][(x[j - 1], view[j])] == tables[j][key]
                            for j in game.players
                            if j != player
                        ):
                            score[tables[player][key]] += w * P
                best_v = max(images[player], key=lambda v: (score[v], -images[player].index(v)))
                if tables_now[player][(xbit, cell)] != best_v:
                    tables_now[player][(xbit, cell)] = best_v
                    changed = True
        return changed

    def keyed_tables(xstar) -> dict[int, dict]:
        key_s = bits_key(xstar)
        key_f = bits_key([1 - b for b in xstar])
        out: dict[int, dict] = {}
        for i in game.players:
            out[i] = {}
            for xbit in (0, 1):
                answer = tables[i][key_s] if xbit == xstar[i - 1] else tables[i][key_f]
                for view in views:
                    out[i][(xbit, view[i])] = answer
        return out

    xstar = _best_complementary_pair(game.distribution, game.n)[0]

    def sampled_sinusoid(tabs, theta, idx) -> tuple[float, float, float]:
        # a*cos(t) + b*sin(t) + c through the values at t = 0, pi/2 and pi.
        old = theta[idx]
        samples = []
        for t in (0.0, 0.5 * math.pi, math.pi):
            theta[idx] = t
            samples.append(value_of(tabs, theta))
        theta[idx] = old
        v0, v_half, v_pi = samples
        c = 0.5 * (v0 + v_pi)
        return 0.5 * (v0 - v_pi), v_half - c, c

    best = 0.0
    for restart in range(opts.restarts):
        theta = _substream(opts.seed, restart).uniform(0.0, 2.0 * math.pi, size=len(slots)).tolist()
        tabs = keyed_tables(xstar)
        current = value_of(tabs, theta)
        for _ in range(opts.max_sweeps):
            for player in game.players:
                best_response(tabs, theta, player)
            now = value_of(tabs, theta)
            for idx in range(len(theta)):
                now = _exact_step(theta, idx, *sampled_sinusoid(tabs, theta, idx), now)
            if now - current < opts.tolerance:
                break
            current = now
        best = max(best, value_of(tabs, theta))
    return best
