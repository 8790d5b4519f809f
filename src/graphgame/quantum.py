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
cos(theta_a - theta_b)``: substituting the wiring into each check of the
game's table (``GraphicGame.checks``), once per check key, turns it into a
parity constraint on the measured outcomes, and at each input the GF(2)
solution space of the constraints whose keys apply there gives every
coefficient in closed form, with no enumeration of outcome tuples.  So
every optimizer result is a genuine lower bound on the game's quantum
value, never an estimate.

Vertices owned by three or more players have no pair here and are rejected
by default; passing ``allow_multiway=True`` treats them as unentangled
(deterministic outputs only), which is the honest model when such sharing
exists and is what the command-line tools use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .classical import DeterministicStrategy, _best_complementary_pair, target_value_from_tables
from .model import (
    ConsistencyPayoff,
    GraphGameError,
    GraphicGame,
    TargetPayoff,
    _substream,
    bits_key,
    is_sign,
)

DEFAULT_PAIR_BUDGET = 12

# Sweeps after which an ascent or the target probe stops unconverged.
_MAX_SWEEPS = 40

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
    """The pairs and multiway vertices read off ``game.owners``."""
    pairs = tuple((v, *who) for v, who in game.owners.items() if len(who) == 2)
    multiway = tuple(v for v, who in game.owners.items() if len(who) >= 3)
    if multiway and not allow_multiway:
        raise MultiwaySharedVertexError(multiway)
    return PairModel(pairs=pairs, multiway=multiway)


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
            if not is_sign(expr.sign):
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
    designated: dict[tuple[int, ...], str] = {}  # owner pair -> its smallest pair vertex
    for v, a, b in model.pairs:
        designated.setdefault((a, b), v)

    angles: dict[tuple[int, str, int], float] = {}
    wiring: dict[tuple[int, int, str], OutputExpr] = {}
    for i in game.players:
        for x in (0, 1):
            owned = sorted(game.owned(i, x))
            refs_used: dict[str, int] = {}
            exprs: dict[str, OutputExpr] = {}
            for v in owned:
                if len(game.owners[v]) == 2:
                    ref = designated[game.owners[v]]
                    exprs[v] = OutputExpr(1, (ref,))
                    refs_used[ref] = refs_used.get(ref, 0) + 1
                else:
                    exprs[v] = OutputExpr(1, ())
            if i > game.m:
                odd = tuple(sorted(r for r, c in refs_used.items() if c % 2))
                if odd:
                    slack = next((v for v in owned if len(game.owners[v]) == 1), None)
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
    answers: Mapping[tuple[int, int, str], tuple[int, tuple[str, ...]]],
    pairs: Sequence[tuple[str, int, int]],
) -> dict[tuple[int, int, int, int], tuple[int, int]]:
    """Each check of ``game.checks`` with the wired outputs substituted, by key.

    ``answers[(player, input, vertex)]`` is the wiring's ``(sign, refs)``.
    Outcome bit ``o`` stands for the sign ``(-1)**o`` of a measured half:
    pair k of ``pairs`` (vertex, a, b) holds a's half at bit ``2k + 1`` and
    b's at bit ``2k``.  So every wired output is ``sign *
    (-1)**popcount(outcomes & mask)``, and each ``(mask, parity)`` holds when
    ``popcount(outcomes & mask)`` has that parity.  A round at input ``x``
    is won iff every row whose key applies at ``x`` holds.
    """
    bit = {}
    for k, (v, a, b) in enumerate(pairs):
        bit[(a, v)], bit[(b, v)] = 1 << 2 * k + 1, 1 << 2 * k
    rows = {}
    for key, (sides, parity) in game.checks.items():
        mask = 0
        for i, xi, verts in sides:
            for v in verts:
                sign, refs = answers[(i, xi, v)]
                parity ^= sign < 0
                for r in refs:
                    mask ^= bit[(i, r)]
        rows[key] = (mask, parity)
    return rows


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

    The wiring is substituted into each check key once
    (``_parity_constraints``).  At input ``x`` with weight ``w`` the won
    outcomes of the measured halves are the solutions of the rows whose keys
    apply at ``x``, an affine subspace of rank ``r``.  Writing each pair's
    outcome law as ``(1 + a*b*c)/4`` and expanding, the subset ``S`` of
    fully measured pairs gets the coefficient ``w * 4**-both * 2**-single *
    sum over wins of the character of S``; that character sum over an affine
    subspace is ``+-2**(sides - r)`` when the character is constant on it
    (its mask lies in the constraints' span) and 0 otherwise, so the
    coefficient is ``+-w * 2**-r`` or 0.  Equal monomials merge across
    inputs.  A slot enters at most one correlator of any monomial, so along
    one angle the value is ``a*cos(t) + b*sin(t) + c`` (``sinusoid``).
    """

    def __init__(self, game: GraphicGame, strategy: QuantumStrategy, model: PairModel):
        self.slots: list[tuple[int, str, int]] = sorted(strategy.angles)
        index = {k: i for i, k in enumerate(self.slots)}
        # Monomial (its correlators' slot pairs, in pair order) -> coefficient.
        coeffs: dict[tuple[tuple[int, int], ...], float] = {}
        answers = {key: (e.sign, e.refs) for key, e in strategy.wiring.items()}
        rows = _parity_constraints(game, answers, model.pairs)
        for x, w, keys in game.inputs:
            basis = _echelon(rows[key] for key in keys)
            if basis is None:
                continue
            full: list[tuple[tuple[int, int], int]] = []  # (slot pair, mask of both halves)
            for k, (v, a, b) in enumerate(model.pairs):
                ia = index.get((a, v, x[a - 1]))
                ib = index.get((b, v, x[b - 1]))
                if ia is not None and ib is not None:
                    full.append(((ia, ib), 3 << 2 * k))
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
        # Per slot: the correlators that hold it.
        self.holding: list[list[int]] = [[] for _ in self.slots]
        for k, pair in enumerate(self.correlators):
            for slot in pair:
                self.holding[slot].append(k)

    def cosines(self, theta: Sequence[float]) -> list[float]:
        return [math.cos(theta[a] - theta[b]) for a, b in self.correlators]

    def total(self, corr: Sequence[float]) -> float:
        """The value at correlator cosines ``corr``."""
        return math.fsum(c * math.prod([corr[k] for k in key]) for c, key in self.terms)

    def value(self, theta: Sequence[float]) -> float:
        return self.total(self.cosines(theta))

    def sinusoid(self, angles: "_Angles", slot: int, value: float) -> tuple[float, float, float]:
        """``(a, b, c)`` with ``value(theta with slot at t) == a*cos(t) + b*sin(t) + c``.

        ``value`` must be ``value(angles.theta)``; only the terms holding the
        slot are visited, and ``c`` is ``value`` minus their current sum.
        """
        corr = angles.corr
        a = b = 0.0
        for partner, terms in self.touching[slot]:
            r = 0.0
            for c, rest in terms:
                for k in rest:
                    c *= corr[k]
                r += c
            a += r * angles.cos[partner]
            b += r * angles.sin[partner]
        return a, b, value - (a * angles.cos[slot] + b * angles.sin[slot])


class _Angles:
    """One ascent's angles with their cosines, sines and correlator cosines.

    ``move`` sets one angle and refreshes only what holds it, so every
    cached number stays the float a full recomputation would give.
    """

    def __init__(self, ev: _Evaluator, theta: list[float]):
        self.ev = ev
        self.theta = theta
        self.cos = [math.cos(t) for t in theta]
        self.sin = [math.sin(t) for t in theta]
        self.corr = ev.cosines(theta)

    def move(self, slot: int, t: float) -> None:
        theta = self.theta
        theta[slot] = t
        self.cos[slot] = math.cos(t)
        self.sin[slot] = math.sin(t)
        for k in self.ev.holding[slot]:
            a, b = self.ev.correlators[k]
            self.corr[k] = math.cos(theta[a] - theta[b])


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


def _exact_step(angles: _Angles, idx: int, a: float, b: float, c: float, current: float) -> float:
    """Move angle ``idx`` to the maximum of ``a*cos(t) + b*sin(t) + c``.

    That sinusoid is the value along the angle with every other angle
    fixed; its maximum ``c + hypot(a, b)`` sits at ``atan2(b, a)``.  The
    angle moves only when the maximum beats ``current``, so the ascent is
    monotone and ties keep the angle.  Returns the new value.
    """
    peak = c + math.hypot(a, b)
    if peak > current:
        angles.move(idx, math.atan2(b, a) % (2.0 * math.pi))
        return peak
    return current


def _check_options(opts: OptimizeOptions) -> None:
    if opts.restarts < 1:
        raise GraphGameError(f"restarts must be at least 1, got {opts.restarts!r}")
    if not (math.isfinite(opts.tolerance) and opts.tolerance >= 0.0):
        raise GraphGameError(f"tolerance must be finite and non-negative, got {opts.tolerance!r}")


def _ascend(ev: _Evaluator, theta: list[float], opts: OptimizeOptions) -> tuple[float, bool]:
    """Cyclic exact coordinate ascent; returns the exact value at the final angles."""
    angles = _Angles(ev, theta)
    value = ev.total(angles.corr)
    if not theta:
        return value, True
    for _ in range(_MAX_SWEEPS):
        before = value
        for idx in range(len(theta)):
            value = _exact_step(angles, idx, *ev.sinusoid(angles, idx, value), value)
        if value - before < opts.tolerance:
            return ev.total(angles.corr), True
    return ev.total(angles.corr), False


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
    """Best found value of pair-assisted response strategies for a target game.

    Players may measure the pair halves they hold and answer from their own
    input and outcomes.  Each player's own outcomes are uniform and
    independent of everything the others see (no-signalling), so while the
    other players' answers ignore outcomes, every outcome column of a
    player's table scores the same and an exact best response ignores them
    too.  Starting from tables that ignore outcomes, the search therefore
    never leaves them: it is the classical response search over tables
    ``own input -> image``.  It starts right on the first best
    complementary pair of inputs, lets the players best-respond in order
    (ties go to the lowest image) and stops once a sweep gains less than
    ``tolerance``, after at most ``_MAX_SWEEPS``.  The value is exact for
    the tables found, so it never exceeds the classical optimum.  Games
    without any two-owner vertex get the exact classical response value.
    ``restarts`` and ``seed`` are validated but have no effect.
    """
    if not isinstance(game.payoff, TargetPayoff):
        raise GraphGameError("target_quantum_probe requires a target-mode game")
    opts = options or OptimizeOptions()
    _check_options(opts)
    model = build_pair_model(game, allow_multiway=True)
    tables = game.payoff.targets.tables
    if not model.pairs:
        return target_value_from_tables(tables, game.distribution, game.n)

    players = range(game.n)
    images = [sorted(set(tables[i + 1].values())) for i in players]
    xs = np.array([x for x, _, _ in game.inputs])
    w = np.array([w for _, w, _ in game.inputs])
    target = np.array([[images[i].index(tables[i + 1][bits_key(x)]) for i in players] for x, _, _ in game.inputs])
    # tabs[i][b]: player i's image index at own input b, right on the best complementary pair.
    xstar = _best_complementary_pair(game.distribution, game.n)[0]
    pair_keys = (bits_key(xstar), bits_key([1 - b for b in xstar]))
    tabs = [
        np.array([images[i].index(tables[i + 1][pair_keys[b != xstar[i]]]) for b in (0, 1)]) for i in players
    ]

    def hits() -> np.ndarray:
        return np.array([tabs[i][xs[:, i]] == target[:, i] for i in players])

    now = float(w[hits().all(axis=0)].sum())
    for _ in range(_MAX_SWEEPS):
        current = now
        for i in players:
            others = np.delete(hits(), i, axis=0).all(axis=0)
            score = np.bincount(xs[:, i] * len(images[i]) + target[:, i], w * others, 2 * len(images[i]))
            tabs[i] = score.reshape(2, -1).argmax(axis=1)
        now = float(w[hits().all(axis=0)].sum())
        if now - current < opts.tolerance:
            break
    return now
