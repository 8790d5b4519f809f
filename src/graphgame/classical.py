"""Exact classical game values by exhaustive deterministic-strategy search.

Player i's answer at input x is a pattern of ``h`` bits, one per owned
vertex: vertex k of ``sorted(game.owned(i, x))`` is bit ``h-1-k`` (most
significant first), set where the sign is -1.  The win factors come from
the game's check table (``GraphicGame.checks``): each side of a check that
applies at an input of nonzero weight (``GraphicGame.inputs``) becomes a
mask over its player's bits, once per check key.  The search itself never
restates the referee's conditions.

Some checks can always be met.  A check is peeled when one of its sides
holds a bit that no other live check's side holds at that (player, input):
whatever the other bits, flipping that bit meets the check and changes no
other live check.  Peeling repeats until no check qualifies.  It covers
the vertices in no pair's region: a high-block player's total-product
check is peeled on them, and a low-block player's are in no check at all.

The referee then reads player i's input-x pattern only through its
parities on the masks of the surviving checks, so two patterns with the
same parities score the same everywhere.  The search walks one class of
such patterns per code, ``2^k_ix`` classes for a mask span of rank
``k_ix``, and each class stands for its lowest pattern (see ``_pivots``).
cube3's players keep 3 of their 4 bits at each input, 2^18 points in all.
The witness takes each class's lowest pattern and restores the peeled
checks, last peeled first, by flipping each one's bit where it fails.

The search then eliminates one responder player exactly.  Its code is a
pair (input-0 class, input-1 class), and with every other player's code
fixed, inputs where the responder sees 0 depend only on the first class and
inputs where it sees 1 only on the second.  So its best response is the
best input-0 class plus the best input-1 class, and the walk covers
``prod_{j != r} 2^(k_j0 + k_j1) * (2^k_r0 + 2^k_r1)`` points.

The budget and ``StrategySpaceError.space_size`` count a space read off the
check table before any input is enumerated (see ``_space_size``); the class
space never exceeds it.

The module also carries the closed-form values used to cross-check the
search on star-shaped and fully-shared games, the complementary-pair bound
for target games, and the injectivity check for target functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from typing import Mapping

import numpy as np

from .model import (
    CheckKey,
    ConsistencyPayoff,
    GraphGameError,
    GraphicGame,
    InputDistribution,
    TargetFunction,
    TargetPayoff,
    bits_key,
    input_vectors,
    input_weight,
    weighted_inputs,
)

DEFAULT_STRATEGY_BUDGET = 1 << 24

# Each of the search's two accumulators holds at most this many entries per
# block (unless one row of the other players' grid is larger).
_BLOCK_ENTRIES = 1 << 22


class StrategySpaceError(GraphGameError):
    """The deterministic strategy space exceeds the configured budget."""

    def __init__(self, space_size: int, budget: int):
        super().__init__(
            f"strategy space has {space_size} points after grouping, budget is {budget}"
        )
        self.space_size = space_size
        self.budget = budget


@dataclass(frozen=True)
class DeterministicStrategy:
    """A full deterministic answer plan: a sign per (player, input, vertex).

    ``index`` is the strategy's position in the class enumeration that
    ``classical_value`` walks (player 1's code most significant), kept so
    that tie-breaks and replays are reproducible.
    """

    signs: Mapping[tuple[int, int, str], int]
    index: int = 0


@dataclass(frozen=True)
class ClosedFormParams:
    """Inputs to the closed-form value formulas.

    ``p`` is the probability of input bit 0, ``p_star`` the constant win
    factor contributed by unconstrained pairs, ``n1`` the star size (hub
    plus leaves), ``l`` the count of mutually sharing players.
    """

    p: float
    p_star: float = 1.0
    n1: int | None = None
    l: int | None = None  # noqa: E741 - matches the usual symbol

    def _check_base(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p={self.p} outside [0, 1]")
        if not (0.0 <= self.p_star <= 1.0):
            raise ValueError(f"p_star={self.p_star} outside [0, 1]")


def _space_size(game: GraphicGame) -> int:
    """2 to the number of vertex groups, read off the check table alone.

    A group is the vertices of one (player, input) set that one nonempty set
    of pair checks holds.  Every surviving mask at a (player, input) is a
    union of its groups (a total-product check survives only where pair
    regions cover the whole set), so the class space never exceeds this.
    """
    held: dict[tuple[int, int, str], set[CheckKey]] = {}
    for key, (sides, _) in game.checks.items():
        if key[0] != key[2]:
            for i, x, region in sides:
                for v in region:
                    held.setdefault((i, x, v), set()).add(key)
    return 1 << len({(i, x, frozenset(keys)) for (i, x, _), keys in held.items()})


def _parity_sign(patterns: np.ndarray, mask: int) -> np.ndarray:
    ones = np.bitwise_count(patterns & np.uint64(mask)).astype(np.int8)
    return (1 - 2 * (ones & 1)).astype(np.int8)


def _pivots(masks) -> list[int]:
    """Pivot bits of the span of ``masks``, lowest first.

    Each mask is eliminated on its lowest set bit.  The referee tells two
    patterns apart only through their parities on the masks, so patterns
    that differ by a pattern orthogonal to the span fall in one class.
    Every nonzero pattern orthogonal to the span has its highest set bit
    off the pivots, so each class holds exactly one pattern over the pivot
    bits alone, and that pattern is the class's lowest.  Numbering each
    class by its lowest pattern's pivot bits, packed (see ``_pack``),
    orders the classes as their lowest patterns.
    """
    basis: dict[int, int] = {}  # lowest set bit -> reduced mask
    for mask in masks:
        for low in sorted(basis):
            if mask & low:
                mask ^= basis[low]
        if mask:
            basis[mask & -mask] = mask
    return sorted(basis)


def _pack(pattern: int, pivots: list[int]) -> int:
    """The bits of ``pattern`` on the pivots, packed in the pivots' order."""
    code = 0
    for k, low in enumerate(pivots):
        if pattern & low:
            code |= 1 << k
    return code


def _unpack(code: int, pivots: list[int]) -> int:
    """The pattern over the pivots whose packed bits are ``code``."""
    return sum(low for k, low in enumerate(pivots) if code >> k & 1)


_Read = list[tuple[int, int, int]]  # a check's sides as (player, input, mask)


@dataclass(frozen=True)
class _Quotient:
    """The referee's checks over the classes of patterns it can tell apart.

    ``vertices[(i, x)]`` lists player i's input-x vertices in bit order (see
    the module docstring).  ``peeled`` holds each peeled check's sides as
    raw masks, its parity, and the (player, input, bit) that meets it, in
    peel order.  ``pivots[(i, x)]`` holds the pivot bits of the surviving
    masks (see ``_pivots``), and that (player, input) has ``2^bits[(i, x)]``
    classes, so player i has ``classes[i - 1]`` codes ``class0 << bits1 |
    class1``.  ``inputs`` holds each weighted input vector with its weight
    and the keys of the surviving checks that apply there, and
    ``checks[key]`` holds that check's sides as (player, input, mask over the
    class bits) and its parity.
    """

    vertices: dict[tuple[int, int], list[str]]
    peeled: list[tuple[_Read, int, int, int, int]]
    pivots: dict[tuple[int, int], list[int]]
    bits: dict[tuple[int, int], int]
    classes: tuple[int, ...]
    inputs: list[tuple[float, tuple[int, ...], list[CheckKey]]]
    checks: dict[CheckKey, tuple[_Read, int]]


def _quotient(game: GraphicGame) -> _Quotient:
    """The checks that apply at the weighted inputs, peeled, over their classes."""
    vertices = {(i, x): sorted(game.owned(i, x)) for i in game.players for x in (0, 1)}
    bit_of = {
        (i, x, v): 1 << (len(verts) - 1 - k)
        for (i, x), verts in vertices.items()
        for k, v in enumerate(verts)
    }
    live: dict[CheckKey, tuple[_Read, int]] = {}
    for key in dict.fromkeys(key for _, _, keys in game.inputs for key in keys):
        sides, parity = game.checks[key]
        live[key] = ([(i, x, sum(bit_of[(i, x, v)] for v in verts)) for i, x, verts in sides], parity)
    peeled = []
    while True:
        # The bits two or more live sides hold, per (player, input).  Peeling
        # only frees bits, so a bit alone at the pass's start stays alone.
        seen = dict.fromkeys(vertices, 0)
        shared = dict(seen)
        for read, _ in live.values():
            for i, x, mask in read:
                shared[(i, x)] |= seen[(i, x)] & mask
                seen[(i, x)] |= mask
        count = len(peeled)
        for key, (read, parity) in list(live.items()):
            for i, x, mask in read:
                alone = mask & ~shared[(i, x)]
                if alone:
                    peeled.append((read, parity, i, x, alone & -alone))
                    del live[key]
                    break
        if len(peeled) == count:
            break
    masks: dict[tuple[int, int], list[int]] = {key: [] for key in vertices}
    for read, _ in live.values():
        for i, x, mask in read:
            masks[(i, x)].append(mask)
    pivots = {key: _pivots(ms) for key, ms in masks.items()}
    checks = {
        key: ([(i, x, _pack(mask, pivots[(i, x)])) for i, x, mask in read], parity)
        for key, (read, parity) in live.items()
    }
    inputs = [(w, x, [key for key in keys if key in checks]) for x, w, keys in game.inputs]
    bits = {key: len(p) for key, p in pivots.items()}
    classes = tuple(1 << (bits[(i, 0)] + bits[(i, 1)]) for i in game.players)
    return _Quotient(
        vertices=vertices,
        peeled=peeled,
        pivots=pivots,
        bits=bits,
        classes=classes,
        inputs=inputs,
        checks=checks,
    )


def _responder(quotient: _Quotient) -> int:
    """Axis of the player whose best response is taken in closed form.

    Eliminating player r walks ``prod(classes) * (2^k_r0 + 2^k_r1) /
    classes[r]`` points, for ``k_rx`` class bits at input x, so r minimises
    ``2^-k_r0 + 2^-k_r1`` (a sum of two powers of two, exact in floating
    point); ties go to the lowest index.
    """
    bits = quotient.bits
    return min(
        range(len(quotient.classes)),
        key=lambda a: 2.0 ** -bits[(a + 1, 0)] + 2.0 ** -bits[(a + 1, 1)],
    )


def _strategy(quotient: _Quotient, flat: int) -> DeterministicStrategy:
    """The strategy at index ``flat`` of the class enumeration.

    Each class stands for its lowest pattern.  The peeled checks are then
    restored, last peeled first: a check that fails gets its bit flipped,
    which no surviving check and no check peeled after it holds.  Each sign
    is -1 exactly where its pattern bit is set.
    """
    pattern = {}
    for i, code in enumerate(np.unravel_index(flat, quotient.classes), 1):
        c0, c1 = divmod(int(code), 1 << quotient.bits[(i, 1)])
        pattern[(i, 0)] = _unpack(c0, quotient.pivots[(i, 0)])
        pattern[(i, 1)] = _unpack(c1, quotient.pivots[(i, 1)])
    for read, parity, i, x, bit in reversed(quotient.peeled):
        if sum((pattern[(j, y)] & mask).bit_count() for j, y, mask in read) % 2 != parity:
            pattern[(i, x)] ^= bit
    signs = {
        (i, x, v): -1 if pattern[(i, x)] >> (len(verts) - 1 - k) & 1 else 1
        for (i, x), verts in quotient.vertices.items()
        for k, v in enumerate(verts)
    }
    return DeterministicStrategy(signs=signs, index=flat)


def classical_value(
    game: GraphicGame, budget: int = DEFAULT_STRATEGY_BUDGET
) -> tuple[float, DeterministicStrategy]:
    """Exact optimum over deterministic strategies, with an attaining witness.

    The search walks class codes (see the module docstring): player i's code
    is ``class0 << k_i1 | class1``, for ``k_ix`` class bits at input x.  One
    responder player (see ``_responder``) is eliminated exactly: with the
    other players' codes fixed, the inputs where the responder sees 0
    depend only on its input-0 class and the rest only on its input-1 class.
    So the search fills two accumulators over the other players' grid, A
    over the input-0 class and B over the input-1 class, and each grid
    point scores ``max(A) + max(B)``.

    Ties break toward the lowest index of the class enumeration (player 1's
    code most significant), which the witness carries (see ``_strategy``).
    The returned value is the witness's winning input weights summed in
    input order.  Raises StrategySpaceError when ``_space_size`` exceeds
    ``budget``, and GraphGameError for fewer than two players.
    """
    if not isinstance(game.payoff, ConsistencyPayoff):
        raise GraphGameError("classical_value requires a consistency-mode game")
    if game.n < 2:
        raise GraphGameError("classical_value needs at least two players")
    size = _space_size(game)
    if size > budget:
        raise StrategySpaceError(size, budget)

    quotient = _quotient(game)
    bits = quotient.bits
    classes = quotient.classes
    n = game.n
    r = _responder(quotient)
    k1_r = bits[(r + 1, 1)]
    others = [a for a in range(n) if a != r]
    grid = tuple(classes[a] for a in others)
    # Accumulator axes: the other players in order, then the responder's
    # class at one input.
    axis_of = {a: k for k, a in enumerate(others)}
    axis_of[r] = len(others)
    width = max(1 << bits[(r + 1, x)] for x in (0, 1))
    rows = grid[0]
    row_entries = int(np.prod(grid[1:], dtype=np.int64)) * width
    block = max(1, min(rows, _BLOCK_ENTRIES // row_entries))

    @cache
    def sign(i: int, x: int, mask: int) -> np.ndarray:
        # Side sign of player i at input x, laid along its own axis: per
        # class code, or per input-x class for the responder.
        if i - 1 == r:
            codes = 1 << bits[(i, x)]
        else:
            codes = classes[i - 1]
            mask <<= bits[(i, 1)] * (1 - x)
        dims = [1] * n
        dims[axis_of[i - 1]] = codes
        return _parity_sign(np.arange(codes, dtype=np.uint64), mask).reshape(dims)

    # Win factors, one per check, each broadcastable over the accumulator
    # its inputs feed (the responder's bit).
    built = {
        key: reduce(np.multiply, [sign(*side) for side in sides]) == 1 - 2 * parity
        for key, (sides, parity) in quotient.checks.items()
    }
    per_input = [(w, x[r], [built[key] for key in keys]) for w, x, keys in quotient.inputs]

    best_value = -1.0
    best_flat = 0
    for start in range(0, rows, block):
        stop = min(start + block, rows)
        local = (stop - start,) + grid[1:]
        acc = [np.zeros(local + (1 << bits[(r + 1, x)],)) for x in (0, 1)]
        for w, half, factors in per_input:
            mask = True
            for f in factors:
                mask = mask & (f if f.shape[0] == 1 else f[start:stop])
            np.add(acc[half], w, out=acc[half], where=mask)
        vals = acc[0].max(-1) + acc[1].max(-1)
        top = float(vals.max())
        if top < best_value:
            continue
        # Lowest class-enumeration index among this block's maximisers: the
        # responder's code at each is its lowest maximising pair of classes.
        hits = np.flatnonzero(vals == top)
        coords = list(np.unravel_index(hits, local))
        coords[0] = coords[0] + start
        c0, c1 = (a.reshape(-1, a.shape[-1])[hits].argmax(-1) for a in acc)
        coords.insert(r, (c0 << k1_r) | c1)
        flat = int(np.ravel_multi_index(coords, classes).min())
        if top > best_value or flat < best_flat:
            best_value = top
            best_flat = flat

    # The witness's class at each (player, input).
    at = {}
    for i, code in enumerate(np.unravel_index(best_flat, classes), 1):
        at[(i, 0)], at[(i, 1)] = divmod(int(code), 1 << bits[(i, 1)])
    # Re-score the witness check by check, adding the weights of the inputs
    # it wins in input order.  A walk over every point sums each point's
    # weights that way, so the value matches it bit for bit instead of
    # carrying the rounding of the split A + B.
    holds = {
        key: sum((at[(i, x)] & mask).bit_count() for i, x, mask in sides) % 2 == parity
        for key, (sides, parity) in quotient.checks.items()
    }
    value = 0.0
    for w, _, keys in quotient.inputs:
        if all(holds[key] for key in keys):
            value += w
    return value, _strategy(quotient, best_flat)


def strategy_value(game: GraphicGame, strategy: DeterministicStrategy) -> float:
    """Average winning probability of one fixed deterministic strategy."""
    from .model import OutputAssignment, evaluate_payoff

    total = 0.0
    for x, w, _ in game.inputs:
        values = {
            (i, v): strategy.signs[(i, x[i - 1], v)]
            for i in game.players
            for v in game.owned(i, x[i - 1])
        }
        total += w * evaluate_payoff(game, x, OutputAssignment(values)).verdict
    return total


def closed_form_star_classical(params: ClosedFormParams) -> float:
    """Optimal classical value of a star of simultaneous pair games.

    With p0 = max(p, 1-p), the value is p_star * (p0 + (1-p0) * p0**(n1-1)):
    all pairs go unconstrained on the likelier hub branch and each leaf is
    guessed independently on the other branch.
    """
    params._check_base()
    if params.n1 is None or params.n1 < 2:
        raise ValueError("star form needs n1 >= 2")
    p0 = max(params.p, 1.0 - params.p)
    return params.p_star * (p0 + (1.0 - p0) * p0 ** (params.n1 - 1))


def closed_form_shared_classical(params: ClosedFormParams) -> float:
    """Optimal classical value when l players all own one common region.

    The first player's branch at input 0 is always winnable; at input 1 it
    must match every other player's input, so the two branches give
    p_star * (p + p**(l-1) - p**l) for p >= 1/2 and
    p_star * (p + (1-p)**l) for p <= 1/2 (equal at p = 1/2).
    """
    params._check_base()
    if params.l is None or params.l < 3:
        raise ValueError("shared form needs l >= 3")
    p, l = params.p, params.l
    if p >= 0.5:
        return params.p_star * (p + p ** (l - 1) - p**l)
    return params.p_star * (p + (1.0 - p) ** l)


def _best_complementary_pair(dist: InputDistribution, n: int) -> tuple[tuple[int, ...], float]:
    """The first x that maximises P(x) + P(~x), and that mass."""
    masses = [
        (x, input_weight(dist, x) + input_weight(dist, tuple(1 - b for b in x)))
        for x in input_vectors(n)
    ]
    return max(masses, key=lambda xm: xm[1])


def gyni_classical_bound(dist: InputDistribution, n: int) -> float:
    """Best complementary-pair mass: max over x of P(x) + P(~x)."""
    return _best_complementary_pair(dist, n)[1]


def check_injective(targets: TargetFunction, n: int) -> bool:
    """True iff x -> (f_1(x), ..., f_n(x)) has pairwise distinct images."""
    seen = set()
    for x in input_vectors(n):
        key = bits_key(x)
        image = tuple(targets.tables[i][key] for i in range(1, n + 1))
        if image in seen:
            return False
        seen.add(image)
    return True


def target_value_from_tables(
    tables: Mapping[int, Mapping[str, int]],
    dist: InputDistribution,
    n: int,
    budget: int = DEFAULT_STRATEGY_BUDGET,
) -> float:
    """Exact optimum over per-player response tables y_i: own bit -> value.

    Player i's tables are the pairs ``(y_i(0), y_i(1))`` over its ``k_i``
    images, code ``a * k_i + b`` for the pair of images ``a`` and ``b``.
    Every joint table is scored at once on the grid of all players' codes
    (player 1's on the first axis), in blocks of player 1's codes that hold
    at most ``_BLOCK_ENTRIES`` (input, grid point) entries, or one code when
    its slice is larger.  Each grid point adds its winning input weights in
    input order, as a walk over the tables would, so the maximum is that
    walk's float.
    Raises StrategySpaceError when ``prod(k_i**2)`` exceeds ``budget``.
    """
    images = [sorted(set(tables[i].values())) for i in range(1, n + 1)]
    grid = tuple(len(vals) ** 2 for vals in images)
    space = math.prod(grid)
    if space > budget:
        raise StrategySpaceError(space, budget)

    weighted = weighted_inputs(dist, n)
    if not weighted:
        return 0.0
    xs, w = zip(*weighted)
    keys = [bits_key(x) for x in xs]
    own = np.array(xs, dtype=np.intp)
    # right[i][x, ..., code, ...]: player i's table ``code`` answers input x
    # with its target, laid along player i's grid axis.
    right = []
    for i, vals in enumerate(images):
        k = len(vals)
        position = {v: j for j, v in enumerate(vals)}
        target = np.array([position[tables[i + 1][key]] for key in keys], dtype=np.intp)
        answer = np.array(np.divmod(np.arange(k * k), k))  # the image at own input 0, at 1
        dims = [len(keys)] + [1] * n
        dims[i + 1] = k * k
        right.append((answer[own[:, i]] == target[:, None]).reshape(dims))
    w = np.reshape(w, [len(keys)] + [1] * n)

    rows = grid[0]
    block = max(1, min(rows, _BLOCK_ENTRIES // (len(keys) * (space // rows))))
    best = 0.0
    for start in range(0, rows, block):
        hits = reduce(np.logical_and, right[1:], right[0][:, start : start + block])
        # A running sum over the input axis adds each grid point's winning
        # weights one input at a time, in input order.
        won = np.where(hits, w, 0.0)
        np.cumsum(won, axis=0, out=won)
        best = max(best, float(won[-1].max()))
    return best


def target_classical_value(game: GraphicGame, budget: int = DEFAULT_STRATEGY_BUDGET) -> float:
    """Exact classical optimum of a target-mode game."""
    if not isinstance(game.payoff, TargetPayoff):
        raise GraphGameError("target_classical_value requires a target-mode game")
    return target_value_from_tables(
        game.payoff.targets.tables, game.distribution, game.n, budget
    )
