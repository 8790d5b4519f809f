"""Sharing structure and the quantum-advantage classification rule.

For a low-block player ``i`` the neighbor set holds every high-block player
that shares vertices with ``i`` at all four input combinations.  The sharing
index ``I_i`` is the size of the largest tuple (player ``i`` plus neighbors)
that still shares jointly at every input combination; two notions of "shares
jointly" are supported:

  * ``common-intersection``: the tuple's owned sets have a nonempty common
    intersection for every input assignment,
  * ``pairwise-clique``: every pair inside the tuple shares vertices for
    every input pair.

The two agree on most networks and differ exactly on triangle-like layouts
where pairs share pairwise-distinct vertices; both are exposed and
``common-intersection`` is the default.  The verdict rule: a game whose
value is already 1 is Trivial, one whose structure carries no cross-block
sharing at all is NoSharedVertices, otherwise the minimum defined sharing
index decides (2 means quantum advantage, larger means none).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product as _iter_product
from typing import Mapping, Optional

from .classical import DEFAULT_STRATEGY_BUDGET, StrategySpaceError, classical_value
from .model import ConsistencyPayoff, GraphGameError, GraphicGame

COMMON_INTERSECTION = "common-intersection"
PAIRWISE_CLIQUE = "pairwise-clique"
SEMANTICS = (COMMON_INTERSECTION, PAIRWISE_CLIQUE)

QUANTUM_ADVANTAGE = "QuantumAdvantage"
NO_QUANTUM_ADVANTAGE = "NoQuantumAdvantage"
TRIVIAL = "Trivial"
NO_SHARED_VERTICES = "NoSharedVertices"
UNKNOWN = "Unknown"

DEFAULT_PLAYER_BUDGET = 20

_TRIVIAL_TOL = 1e-12


class PlayerBudgetError(GraphGameError):
    """Too many players for the exact independent-set search."""


@dataclass(frozen=True)
class SharingStructure:
    """Neighbor sets, tuple levels and sharing indices for players 1..m."""

    neighbor_sets: Mapping[int, frozenset[int]]
    tuple_levels: Mapping[int, Mapping[int, bool]]
    indices: Mapping[int, Optional[int]]
    semantics_used: str


@dataclass(frozen=True)
class Classification:
    verdict: str
    indices: SharingStructure
    classical_value_used: Optional[float] = None


def _shares_always(game: GraphicGame, i: int, j: int) -> bool:
    """Players ``i < j``, ``j > m``, share vertices at all four input pairs:
    the referee holds a check on them under each of the four keys."""
    return all((i, xi, j, xj) in game.checks for xi in (0, 1) for xj in (0, 1))


def players_sharing_with(game: GraphicGame, i: int) -> frozenset[int]:
    """High-block players sharing vertices with player ``i`` at every input pair."""
    if not (1 <= i <= game.m):
        raise GraphGameError(f"player {i} is not in the low block 1..{game.m}")
    return frozenset(
        j for j in range(game.m + 1, game.n + 1) if _shares_always(game, i, j)
    )


def tuple_level_nonempty(game: GraphicGame, i: int, s: int, semantics: str = COMMON_INTERSECTION) -> bool:
    """Is there an s-tuple (player i plus s-1 neighbors) sharing at all inputs?"""
    if not (1 <= i <= game.m):
        raise GraphGameError(f"player {i} is not in the low block 1..{game.m}")
    if s < 2:
        raise GraphGameError(f"tuple size must be >= 2, got {s}")
    if semantics not in SEMANTICS:
        raise GraphGameError(f"unknown semantics {semantics!r}")
    return _level_nonempty(game, i, sorted(players_sharing_with(game, i)), s, semantics)


def _level_nonempty(game: GraphicGame, i: int, neighbors: list[int], s: int, semantics: str) -> bool:
    for combo in combinations(neighbors, s - 1):
        members = (i,) + combo
        if semantics == COMMON_INTERSECTION:
            if all(
                frozenset.intersection(
                    *[game.owned(p, xp) for p, xp in zip(members, bits)]
                )
                for bits in _iter_product((0, 1), repeat=s)
            ):
                return True
        elif all(_shares_always(game, a, b) for a, b in combinations(members, 2)):
            return True
    return False


def sharing_index(game: GraphicGame, i: int, semantics: str = COMMON_INTERSECTION) -> Optional[int]:
    """Largest s with a jointly-sharing s-tuple around player i; None if isolated.

    Levels are downward closed under both semantics (drop one member of a
    jointly-sharing tuple and the rest still share jointly), so the scan
    stops at the first empty level.
    """
    if semantics not in SEMANTICS:
        raise GraphGameError(f"unknown semantics {semantics!r}")
    neighbors = sorted(players_sharing_with(game, i))
    if not neighbors:
        return None
    s = 2  # the neighbor set itself witnesses s = 2
    while s <= len(neighbors) and _level_nonempty(game, i, neighbors, s + 1, semantics):
        s += 1
    return s


def sharing_structure(game: GraphicGame, semantics: str = COMMON_INTERSECTION) -> SharingStructure:
    low = range(1, game.m + 1)
    indices = {i: sharing_index(game, i, semantics) for i in low}
    levels = range(2, game.n - game.m + 2)
    return SharingStructure(
        neighbor_sets={i: players_sharing_with(game, i) for i in low},
        tuple_levels={i: {s: index is not None and s <= index for s in levels} for i, index in indices.items()},
        indices=indices,
        semantics_used=semantics,
    )


def _structure_empty(game: GraphicGame, structure: SharingStructure) -> bool:
    if any(structure.neighbor_sets.values()):
        return False
    return not any(
        _shares_always(game, j, k)
        for j in range(game.m + 1, game.n + 1)
        for k in range(j + 1, game.n + 1)
    )


def classify(
    game: GraphicGame,
    omega_c: Optional[float] = None,
    semantics: str = COMMON_INTERSECTION,
    budget: int = DEFAULT_STRATEGY_BUDGET,
) -> Classification:
    """Advantage verdict from the sharing indices.

    A minimum defined index above 2 already settles the matter: no quantum
    advantage exists whatever the classical value is (some such games, the
    hypercube one included, are even perfectly winnable classically).  The
    value-1 guard applies only where the index rule would claim an
    advantage, because nothing can beat a game that is already won; such
    games come back Trivial.  When the index rule is silent, a value-1 game
    is Trivial, a game with no cross-block sharing anywhere comes back
    NoSharedVertices, and anything else is Unknown.  ``omega_c`` may be
    supplied; otherwise the exact solver runs when the strategy space fits
    the budget, and verdicts that need the value degrade to Unknown when it
    does not.
    """
    if not isinstance(game.payoff, ConsistencyPayoff):
        raise GraphGameError("classify requires a consistency-mode game")
    structure = sharing_structure(game, semantics)

    value = omega_c
    if value is None:
        try:
            value, _ = classical_value(game, budget=budget)
        except StrategySpaceError:
            value = None

    trivial = value is not None and abs(value - 1.0) <= _TRIVIAL_TOL
    defined = [idx for idx in structure.indices.values() if idx is not None]
    if defined and min(defined) > 2:
        verdict = NO_QUANTUM_ADVANTAGE
    elif trivial:
        verdict = TRIVIAL
    elif defined:  # min defined index is 2: advantage iff the game is not already won
        verdict = QUANTUM_ADVANTAGE if value is not None else UNKNOWN
    elif _structure_empty(game, structure):
        verdict = NO_SHARED_VERTICES
    else:
        verdict = UNKNOWN
    return Classification(verdict, structure, classical_value_used=value)


def independence_number(game: GraphicGame, budget: int = DEFAULT_PLAYER_BUDGET) -> int:
    """Largest set of players no two of which share vertices at any input pair.

    Exact exponential search; refuses games with more than ``budget`` players.
    """
    if game.n > budget:
        raise PlayerBudgetError(f"{game.n} players exceeds the exact-search budget {budget}")
    # Two players share a vertex at some input pair iff they co-own it.
    adjacent: dict[int, set[int]] = {i: set() for i in game.players}
    for who in game.owners.values():
        for i, j in combinations(who, 2):
            adjacent[i].add(j)
            adjacent[j].add(i)

    best = 0

    def grow(candidates: frozenset[int], size: int) -> None:
        nonlocal best
        if size + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        v = min(candidates)
        grow(candidates - {v} - adjacent[v], size + 1)
        grow(candidates - {v}, size)

    grow(frozenset(game.players), 0)
    return best
