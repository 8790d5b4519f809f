"""Core types and the referee predicate for graph-built cooperative games.

A game is played on a bare vertex set: player ``i`` receives a bit ``x_i``,
assigns a sign (+1 or -1) to every vertex it owns at that input, and all
players win together when the assignments are consistent on shared vertices.
Players ``1..m`` form the low block; their input-1 vertex sets must be
pairwise disjoint.  For realised inputs ``x`` the referee accepts iff

  (a) every player ``i > m`` has total sign product +1 over its owned
      vertices,
  (b) for every pair ``i <= m < j`` whose shared region is nonempty, the two
      players' products over that region multiply to -1 when
      ``x_i = x_j = 1`` and to +1 otherwise,
  (c) for every pair ``m < i < j`` whose shared region is nonempty, the two
      region products multiply to +1.

Pairs with an empty shared region at the realised inputs impose nothing.
Condition (b) is relational: it constrains the product of the two players'
region products, never one player's product alone.  With that reading the
two-vertex game where player 1 owns ``v_{x_1+1}`` and player 2 owns both
vertices is exactly the CHSH predicate.

Every condition says that a product of signs has a fixed parity, so each is
a GF(2) constraint.  ``referee_checks`` states them once as ``(sides,
parity)`` checks; both exact solvers (the classical search and the quantum
correlator polynomial) are built from those checks alone, and the simulator
scores its rounds with them.  ``evaluate_payoff`` scores a round on its own,
as the independent reference that ``strategy_value`` and the tests use.

Conventions used across the package: players are 1-based, inputs are bits,
an input vector is a tuple of n bits, vertex identifiers are strings
(integers are normalised to their decimal string), signs are the Python
ints +1 and -1.  Every type is immutable after construction and every
operation is a pure function, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iter_product
from typing import Iterable, Mapping, Sequence, Union

import numpy as np


class GraphGameError(Exception):
    """Base class for errors raised by this package."""


class AssignmentDomainError(GraphGameError):
    """An output assignment does not cover exactly the owned vertices."""


class DistributionError(GraphGameError):
    """An input distribution cannot answer the requested lookup."""


class TargetTableError(GraphGameError):
    """A target table is missing an entry for the realised input."""


Sign = int


def _vertex_id(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    raise TypeError(f"vertex identifiers must be strings or ints, got {type(v).__name__}")


@dataclass(frozen=True)
class Graph:
    """A bare vertex set.  Edges play no role in these games."""

    vertices: tuple[str, ...]

    def __init__(self, vertices: Iterable) -> None:
        ids = tuple(_vertex_id(v) for v in vertices)
        object.__setattr__(self, "vertices", ids)
        object.__setattr__(self, "_vertex_set", frozenset(ids))

    def __contains__(self, v) -> bool:
        return v in self._vertex_set  # type: ignore[attr-defined]

    @property
    def vertex_set(self) -> frozenset[str]:
        return self._vertex_set  # type: ignore[attr-defined]


@dataclass(frozen=True)
class AssignmentMap:
    """Per (player, input) ownership: which vertices the player answers on."""

    owned: Mapping[tuple[int, int], frozenset[str]]

    def __init__(self, owned: Mapping[tuple[int, int], Iterable]) -> None:
        norm = {}
        for key, verts in owned.items():
            i, x = key
            if not isinstance(i, int) or not isinstance(x, int) or x not in (0, 1):
                raise TypeError(f"assignment keys must be (player, input bit), got {key!r}")
            norm[(i, x)] = frozenset(_vertex_id(v) for v in verts)
        object.__setattr__(self, "owned", norm)

    def get(self, player: int, x: int) -> frozenset[str]:
        return self.owned.get((player, x), frozenset())


@dataclass(frozen=True)
class IIDDistribution:
    """Independent per-player input bits: probability ``p`` for bit 0."""

    p: float


@dataclass(frozen=True)
class JointDistribution:
    """Explicit joint prior over n-bit input strings.

    Keys absent from the table denote probability zero for solvers and
    samplers; a direct `input_probability` lookup on an absent key is an
    error so that typos in hand-written tables surface early.
    """

    table: Mapping[str, float]

    def __init__(self, table: Mapping[str, float]) -> None:
        object.__setattr__(self, "table", dict(table))


InputDistribution = Union[IIDDistribution, JointDistribution]


@dataclass(frozen=True)
class TargetFunction:
    """Per player, the expected output value for every full input string."""

    tables: Mapping[int, Mapping[str, int]]

    def __init__(self, tables: Mapping[int, Mapping[str, int]]) -> None:
        object.__setattr__(self, "tables", {int(i): dict(t) for i, t in tables.items()})


@dataclass(frozen=True)
class ConsistencyPayoff:
    """Winning = parity-consistency conditions (a)-(c) on shared vertices."""


@dataclass(frozen=True)
class TargetPayoff:
    """Winning = every player's declared value matches its target function."""

    targets: TargetFunction


PayoffMode = Union[ConsistencyPayoff, TargetPayoff]


@dataclass(frozen=True)
class GraphicGame:
    """Immutable game description: graph, ownership, prior, payoff rule."""

    graph: Graph
    n: int
    m: int
    assignments: AssignmentMap
    distribution: InputDistribution
    payoff: PayoffMode

    def __post_init__(self) -> None:
        # Fill absent (player, input) keys so lookups are total.
        owned = dict(self.assignments.owned)
        for i in range(1, self.n + 1):
            for x in (0, 1):
                owned.setdefault((i, x), frozenset())
        object.__setattr__(self, "assignments", AssignmentMap(owned))

    def owned(self, player: int, x: int) -> frozenset[str]:
        return self.assignments.get(player, x)

    @property
    def players(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class OutputAssignment:
    """Signs declared by the players, keyed by (player, vertex)."""

    values: Mapping[tuple[int, str], Sign]

    def __init__(self, values: Mapping[tuple[int, str], int]) -> None:
        object.__setattr__(
            self, "values", {(i, _vertex_id(v)): s for (i, v), s in values.items()}
        )


@dataclass(frozen=True)
class PayoffBreakdown:
    """Audit trail of one referee evaluation.

    ``solo_products`` holds each high-block player's total product (the
    condition (a) inputs); ``region_products`` maps a constrained pair
    (i, j) to the two players' products over their shared region.  The
    verdict is 1 iff every recorded check passed.
    """

    solo_products: Mapping[int, Sign]
    region_products: Mapping[tuple[int, int], tuple[Sign, Sign]]
    verdict: int


@dataclass(frozen=True)
class Violation:
    """One well-formedness defect, with enough context to locate it."""

    code: str
    message: str
    player: int | None = None
    input: int | None = None
    vertex: str | None = None
    other_player: int | None = None


def input_vectors(n: int) -> list[tuple[int, ...]]:
    """All n-bit input vectors in lexicographic order."""
    return [bits for bits in _iter_product((0, 1), repeat=n)]


def bits_key(x: Sequence[int]) -> str:
    return "".join(str(b) for b in x)


def _substream(seed: int, k: int) -> np.random.Generator:
    """Random substream ``k`` of ``seed``: the optimizer's restart k.

    Sessions draw from a counter-based stream instead (see ``runner``).
    """
    return np.random.default_rng(np.random.SeedSequence((seed & (2**63 - 1), k)))


def _as_input_vector(x: Sequence[int], n: int) -> tuple[int, ...]:
    xs = tuple(int(b) for b in x)
    if len(xs) != n:
        raise DistributionError(f"input vector has length {len(xs)}, expected {n}")
    if any(b not in (0, 1) for b in xs):
        raise DistributionError(f"input vector must be bits, got {xs}")
    return xs


def validate_game(game: GraphicGame) -> list[Violation]:
    """Check every structural invariant; returns all defects, never raises.

    An empty list means the game is well-formed.
    """
    out: list[Violation] = []
    seen: set[str] = set()
    for v in game.graph.vertices:
        if v in seen:
            out.append(Violation("duplicate-vertex", f"vertex {v!r} listed twice", vertex=v))
        seen.add(v)
    if not game.graph.vertices:
        out.append(Violation("empty-graph", "graph has no vertices"))
    if game.n < 1:
        out.append(Violation("bad-n", f"player count must be >= 1, got {game.n}"))
    if not (1 <= game.m < game.n):
        out.append(Violation("bad-m", f"m must satisfy 1 <= m < n, got m={game.m}, n={game.n}"))

    for (i, x), verts in sorted(game.assignments.owned.items()):
        if not (1 <= i <= game.n):
            out.append(
                Violation("bad-player", f"assignment for unknown player {i}", player=i, input=x)
            )
            continue
        for v in sorted(verts):
            if v not in game.graph:
                out.append(
                    Violation(
                        "unknown-vertex",
                        f"player {i} at input {x} references vertex {v!r} absent from the graph",
                        player=i,
                        input=x,
                        vertex=v,
                    )
                )

    for i in range(1, min(game.m, game.n) + 1):
        for j in range(i + 1, min(game.m, game.n) + 1):
            overlap = game.owned(i, 1) & game.owned(j, 1)
            for v in sorted(overlap):
                out.append(
                    Violation(
                        "disjointness",
                        f"players {i} and {j} both own vertex {v!r} at input 1",
                        player=i,
                        other_player=j,
                        input=1,
                        vertex=v,
                    )
                )

    dist = game.distribution
    if isinstance(dist, IIDDistribution):
        if not (0.0 <= dist.p <= 1.0):
            out.append(Violation("bad-distribution", f"iid p={dist.p} outside [0, 1]"))
    elif isinstance(dist, JointDistribution):
        total = 0.0
        for key, prob in sorted(dist.table.items()):
            if len(key) != game.n or any(c not in "01" for c in key):
                out.append(
                    Violation("bad-distribution", f"joint key {key!r} is not an {game.n}-bit string")
                )
            if not math.isfinite(prob):
                out.append(Violation("bad-distribution", f"joint probability {key!r} is {prob!r}"))
            elif prob < -1e-15:
                out.append(Violation("bad-distribution", f"joint probability {key!r} is negative"))
            total += prob
        if abs(total - 1.0) > 1e-12:
            out.append(
                Violation("bad-distribution", f"joint probabilities sum to {total!r}, not 1")
            )
    else:
        out.append(Violation("bad-distribution", f"unknown distribution {type(dist).__name__}"))

    if isinstance(game.payoff, TargetPayoff):
        tables = game.payoff.targets.tables
        keys = {bits_key(x) for x in input_vectors(game.n)}
        for i in range(1, game.n + 1):
            table = tables.get(i)
            if table is None:
                out.append(Violation("bad-target-table", f"no target table for player {i}", player=i))
                continue
            missing = keys - set(table)
            for key in sorted(missing):
                out.append(
                    Violation(
                        "bad-target-table",
                        f"player {i} target table lacks input {key!r}",
                        player=i,
                    )
                )
        for i in sorted(set(tables) - set(range(1, game.n + 1))):
            out.append(Violation("bad-target-table", f"target table for unknown player {i}", player=i))

    return out


def shared_region(game: GraphicGame, i: int, j: int, x_i: int, x_j: int) -> frozenset[str]:
    """Vertices owned by both player ``i`` at ``x_i`` and player ``j`` at ``x_j``."""
    for p in (i, j):
        if not (1 <= p <= game.n):
            raise GraphGameError(f"unknown player index {p}")
    if i == j:
        raise GraphGameError("shared_region needs two distinct players")
    return game.owned(i, x_i) & game.owned(j, x_j)


def _product(values: Mapping[tuple[int, str], int], player: int, verts: Iterable[str]) -> int:
    prod = 1
    for v in verts:
        prod *= values[(player, v)]
    return prod


def evaluate_payoff(game: GraphicGame, x: Sequence[int], assignment: OutputAssignment) -> PayoffBreakdown:
    """Score one round of a consistency game.

    ``assignment`` must carry a sign for exactly the vertices owned at the
    realised inputs; anything else raises AssignmentDomainError.
    """
    if not isinstance(game.payoff, ConsistencyPayoff):
        raise GraphGameError("evaluate_payoff requires a consistency-mode game")
    xs = _as_input_vector(x, game.n)
    values = assignment.values
    expected = {(i, v) for i in game.players for v in game.owned(i, xs[i - 1])}
    got = set(values)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise AssignmentDomainError(
            f"assignment domain mismatch: missing={missing[:4]} extra={extra[:4]}"
        )
    for key, s in values.items():
        if s not in (1, -1):
            raise AssignmentDomainError(f"sign for {key} must be +1 or -1, got {s!r}")

    ok = True
    solo: dict[int, int] = {}
    for i in range(game.m + 1, game.n + 1):
        s = _product(values, i, game.owned(i, xs[i - 1]))
        solo[i] = s
        ok = ok and s == 1

    regions: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(1, game.m + 1):
        for j in range(game.m + 1, game.n + 1):
            region = game.owned(i, xs[i - 1]) & game.owned(j, xs[j - 1])
            if not region:
                continue
            zi = _product(values, i, region)
            zj = _product(values, j, region)
            regions[(i, j)] = (zi, zj)
            want = -1 if xs[i - 1] == 1 and xs[j - 1] == 1 else 1
            ok = ok and zi * zj == want
    for i in range(game.m + 1, game.n + 1):
        for j in range(i + 1, game.n + 1):
            region = game.owned(i, xs[i - 1]) & game.owned(j, xs[j - 1])
            if not region:
                continue
            zi = _product(values, i, region)
            zj = _product(values, j, region)
            regions[(i, j)] = (zi, zj)
            ok = ok and zi * zj == 1

    return PayoffBreakdown(solo_products=solo, region_products=regions, verdict=1 if ok else 0)


Side = tuple[int, frozenset[str]]


def referee_checks(game: GraphicGame, x: Sequence[int]) -> list[tuple[tuple[Side, ...], int]]:
    """Conditions (a)-(c) at input ``x`` as parity checks ``(sides, parity)``.

    A side ``(player, vertices)`` stands for the product of that player's
    signs over those vertices; a check holds when the product over all its
    sides is ``(-1)**parity``, and a round is won iff every check holds.
    Checks come in the referee's order: the solo products of players
    ``> m``, then each constrained pair ``i < j``.  Empty sets impose
    nothing and yield no check.
    """
    n, m = game.n, game.m
    owned = [frozenset()] + [game.assignments.owned[(i, b)] for i, b in enumerate(x, 1)]
    checks = [(((i, owned[i]),), 0) for i in range(m + 1, n + 1) if owned[i]]
    for i in range(1, n + 1):
        for j in range(max(i + 1, m + 1), n + 1):
            region = owned[i] & owned[j]
            if region:
                want = int(i <= m and x[i - 1] == 1 and x[j - 1] == 1)
                checks.append((((i, region), (j, region)), want))
    return checks


def evaluate_target_payoff(game: GraphicGame, x: Sequence[int], declared) -> int:
    """Score one round of a target game: 1 iff every declared value matches.

    ``declared`` is either a sequence of n values (player order) or a
    mapping from player index to value.
    """
    if not isinstance(game.payoff, TargetPayoff):
        raise GraphGameError("evaluate_target_payoff requires a target-mode game")
    xs = _as_input_vector(x, game.n)
    if isinstance(declared, Mapping):
        decl = {int(i): v for i, v in declared.items()}
    else:
        decl = {i + 1: v for i, v in enumerate(declared)}
    if set(decl) != set(game.players):
        raise TargetTableError(f"declared values must cover players 1..{game.n}")
    key = bits_key(xs)
    for i in game.players:
        table = game.payoff.targets.tables.get(i)
        if table is None or key not in table:
            raise TargetTableError(f"no target entry for player {i} at input {key!r}")
        if decl[i] != table[key]:
            return 0
    return 1


def input_probability(dist: InputDistribution, x: Sequence[int]) -> float:
    """Probability of one full input vector under the prior.

    The iid convention attaches ``p`` to bit 0 and ``1-p`` to bit 1.  Joint
    lookups are strict: an absent key raises DistributionError.
    """
    xs = tuple(int(b) for b in x)
    if any(b not in (0, 1) for b in xs):
        raise DistributionError(f"input vector must be bits, got {xs}")
    if isinstance(dist, IIDDistribution):
        prob = 1.0
        for b in xs:
            prob *= dist.p if b == 0 else 1.0 - dist.p
        return prob
    if isinstance(dist, JointDistribution):
        key = bits_key(xs)
        if key not in dist.table:
            raise DistributionError(f"joint distribution has no entry for {key!r}")
        return dist.table[key]
    raise DistributionError(f"unknown distribution {type(dist).__name__}")


def input_weight(dist: InputDistribution, x: Sequence[int]) -> float:
    """Like input_probability but treats absent joint entries as zero.

    Solvers and samplers use this total lookup so that sparse joint tables
    (only the supported strings listed) evaluate correctly.
    """
    if isinstance(dist, JointDistribution):
        return dist.table.get(bits_key(tuple(int(b) for b in x)), 0.0)
    return input_probability(dist, x)


def weighted_inputs(dist: InputDistribution, n: int) -> list[tuple[tuple[int, ...], float]]:
    """Every input vector with a nonzero weight, paired with it, in input order."""
    weighted = [(x, input_weight(dist, x)) for x in input_vectors(n)]
    return [(x, w) for x, w in weighted if w != 0.0]
