"""Builders for the bundled example games.

The star and chain builders describe entanglement networks: one vertex per
shared pair, ownership independent of the input.  Star leaves get a private
slack vertex so the total-product condition never pins their shared sign;
without the slack the classical optimum of the skewed-prior star drops
below the closed form, because a leaf owning a single vertex would be
forced to answer +1 on it.
"""

from __future__ import annotations

from .model import (
    AssignmentMap,
    ConsistencyPayoff,
    Graph,
    GraphicGame,
    IIDDistribution,
    InputDistribution,
    TargetFunction,
    TargetPayoff,
    bits_key,
    input_vectors,
)


def chsh_game(p: float = 0.5) -> GraphicGame:
    """Two vertices; player 1 owns v1 or v2 by input, player 2 owns both."""
    return GraphicGame(
        graph=Graph(["v1", "v2"]),
        n=2,
        m=1,
        assignments=AssignmentMap(
            {
                (1, 0): ["v1"],
                (1, 1): ["v2"],
                (2, 0): ["v1", "v2"],
                (2, 1): ["v1", "v2"],
            }
        ),
        distribution=IIDDistribution(p),
        payoff=ConsistencyPayoff(),
    )


def star_game(n1: int, p: float = 0.5) -> GraphicGame:
    """Hub (player 1) sharing one vertex with each of ``n1 - 1`` leaves.

    Leaf ``j`` owns its shared vertex ``wj`` plus a private slack ``uj``,
    all independent of the input.
    """
    if n1 < 2:
        raise ValueError("star needs at least one leaf (n1 >= 2)")
    leaves = list(range(2, n1 + 1))
    vertices = [f"w{j}" for j in leaves] + [f"u{j}" for j in leaves]
    owned = {(1, x): [f"w{j}" for j in leaves] for x in (0, 1)}
    for j in leaves:
        for x in (0, 1):
            owned[(j, x)] = [f"w{j}", f"u{j}"]
    return GraphicGame(
        graph=Graph(sorted(vertices)),
        n=n1,
        m=1,
        assignments=AssignmentMap(owned),
        distribution=IIDDistribution(p),
        payoff=ConsistencyPayoff(),
    )


def cube_game(n: int = 3, p: float = 0.5) -> GraphicGame:
    """n-cube vertices; player i owns the hyperplane with coordinate i = x_i."""
    if n < 2:
        raise ValueError("cube needs n >= 2")
    vertices = [bits_key(x) for x in input_vectors(n)]
    owned = {
        (i, x): [v for v in vertices if v[i - 1] == str(x)]
        for i in range(1, n + 1)
        for x in (0, 1)
    }
    return GraphicGame(
        graph=Graph(vertices),
        n=n,
        m=1,
        assignments=AssignmentMap(owned),
        distribution=IIDDistribution(p),
        payoff=ConsistencyPayoff(),
    )


def chain_game(p: float = 0.5) -> GraphicGame:
    """Four players in a line, one shared vertex per adjacent pair.

    Players are numbered so the two non-adjacent ones come first (the low
    block must be pairwise disjoint): 1 and 2 are the alternating stations
    {A1, A3}, 3 and 4 are {A2, A4}.  The high-block stations carry a
    private slack vertex each, for the same reason the star leaves do.
    """
    owned = {
        (1, 0): ["e1"],
        (1, 1): ["e1"],
        (2, 0): ["e2", "e3"],
        (2, 1): ["e2", "e3"],
        (3, 0): ["e1", "e2", "u3"],
        (3, 1): ["e1", "e2", "u3"],
        (4, 0): ["e3", "u4"],
        (4, 1): ["e3", "u4"],
    }
    return GraphicGame(
        graph=Graph(["e1", "e2", "e3", "u3", "u4"]),
        n=4,
        m=2,
        assignments=AssignmentMap(owned),
        distribution=IIDDistribution(p),
        payoff=ConsistencyPayoff(),
    )


def shared_game(l: int = 3, s: int = 1, p: float = 0.5) -> GraphicGame:  # noqa: E741
    """``l`` players all owning the same ``s`` vertices at every input."""
    if l < 3:
        raise ValueError("shared game needs l >= 3")
    vertices = [f"v{k}" for k in range(1, s + 1)]
    owned = {(i, x): list(vertices) for i in range(1, l + 1) for x in (0, 1)}
    return GraphicGame(
        graph=Graph(vertices),
        n=l,
        m=1,
        assignments=AssignmentMap(owned),
        distribution=IIDDistribution(p),
        payoff=ConsistencyPayoff(),
    )


def trivial_game(p: float = 0.5) -> GraphicGame:
    """Each player owns its own vertex; nothing is shared, value 1."""
    return GraphicGame(
        graph=Graph(["v1", "v2"]),
        n=2,
        m=1,
        assignments=AssignmentMap(
            {(1, 0): ["v1"], (1, 1): ["v1"], (2, 0): ["v2"], (2, 1): ["v2"]}
        ),
        distribution=IIDDistribution(p),
        payoff=ConsistencyPayoff(),
    )


def disconnected_game(p: float = 0.5) -> GraphicGame:
    """Sharing exists at some inputs but never at all four input pairs.

    Player 1 owns the hub vertex only at input 0, player 2 only at input 1,
    player 3 always; no pair shares for every input combination, yet the
    realised constraints still clash, so the classical value stays below 1.
    """
    owned = {
        (1, 0): ["v"],
        (1, 1): ["w1"],
        (2, 0): ["w2"],
        (2, 1): ["v"],
        (3, 0): ["v"],
        (3, 1): ["v"],
    }
    return GraphicGame(
        graph=Graph(["v", "w1", "w2"]),
        n=3,
        m=2,
        assignments=AssignmentMap(owned),
        distribution=IIDDistribution(p),
        payoff=ConsistencyPayoff(),
    )


def triangle_game(p: float = 0.5) -> GraphicGame:
    """Three players sharing pairwise-distinct vertices (no common triple)."""
    owned = {
        (1, 0): ["a", "b"],
        (1, 1): ["a", "b"],
        (2, 0): ["a", "c"],
        (2, 1): ["a", "c"],
        (3, 0): ["b", "c"],
        (3, 1): ["b", "c"],
    }
    return GraphicGame(
        graph=Graph(["a", "b", "c"]),
        n=3,
        m=1,
        assignments=AssignmentMap(owned),
        distribution=IIDDistribution(p),
        payoff=ConsistencyPayoff(),
    )


def _target_game(n: int, tables: dict[int, dict[str, int]], dist: InputDistribution) -> GraphicGame:
    vertices = [f"{chr(ord('a') + i)}{k}" for i in range(n) for k in (1, 2, 3)]
    owned = {
        (i, x): [f"{chr(ord('a') + i - 1)}{k}" for k in (1, 2, 3)]
        for i in range(1, n + 1)
        for x in (0, 1)
    }
    return GraphicGame(
        graph=Graph(vertices),
        n=n,
        m=1,
        assignments=AssignmentMap(owned),
        distribution=dist,
        payoff=TargetPayoff(TargetFunction(tables)),
    )


def gyni_game(n: int = 3, dist: InputDistribution | None = None) -> GraphicGame:
    """Each player must announce its right-hand neighbour's input bit."""
    tables = {
        i: {bits_key(x): x[i % n] for x in input_vectors(n)}
        for i in range(1, n + 1)
    }
    return _target_game(n, tables, dist or IIDDistribution(0.5))


def example2_game() -> GraphicGame:
    """Injective non-permutation targets: f_i(x) = sum of the other two bits."""
    n = 3
    tables = {
        i: {
            bits_key(x): sum(x) - x[i - 1]
            for x in input_vectors(n)
        }
        for i in range(1, n + 1)
    }
    return _target_game(n, tables, IIDDistribution(0.5))


def constant_target_game(n: int = 3) -> GraphicGame:
    """Non-injective control: every player must always answer 0."""
    tables = {i: {bits_key(x): 0 for x in input_vectors(n)} for i in range(1, n + 1)}
    return _target_game(n, tables, IIDDistribution(0.5))


FIXTURES = {
    "chsh": chsh_game,
    "star3": lambda: star_game(3),
    "star4": lambda: star_game(4),
    "cube3": lambda: cube_game(3),
    "chain4": chain_game,
    "shared3": lambda: shared_game(3),
    "trivial": trivial_game,
    "gyni3": gyni_game,
    "example2": example2_game,
    "disconnected": disconnected_game,
    "constant": constant_target_game,
}
