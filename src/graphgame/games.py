"""Builders for the bundled example games; ``network_game`` builds any network of EPR pairs."""

from __future__ import annotations

from .model import (
    AssignmentMap,
    ConsistencyPayoff,
    Graph,
    GraphGameError,
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


def network_game(n: int, links: list[tuple[int, int, str]], m: int, p: float = 0.5) -> GraphicGame:
    """The game of a network of EPR pairs: link ``(a, b, vertex)`` is a pair players a and b share.

    Each player owns its links' vertices at both inputs, and each linked
    player ``j > m`` a private slack ``u{j}`` too: without it, condition (a)
    pins the player's shared sign, which erases the quantum gap.  No link
    may lie inside the low block ``1..m``; ``validate_game`` checks ``p``
    and ``m``.
    """
    owned: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}
    names: set[str] = set()
    for a, b, v in links:
        if not (1 <= a <= n and 1 <= b <= n):
            raise GraphGameError(f"link {v!r} joins players {a} and {b}, outside 1..{n}")
        if a == b:
            raise GraphGameError(f"link {v!r} joins player {a} to itself")
        if max(a, b) <= m:
            raise GraphGameError(f"link {v!r} joins players {a} and {b}, both in the low block 1..{m}")
        if v in names:
            raise GraphGameError(f"vertex {v!r} names two links")
        names.add(v)
        owned[a].append(v)
        owned[b].append(v)
    for j, verts in owned.items():
        if j > m and verts:
            if f"u{j}" in names:
                raise GraphGameError(f"link vertex 'u{j}' is named like player {j}'s slack")
            verts.append(f"u{j}")
    return GraphicGame(
        graph=Graph(sorted({v for verts in owned.values() for v in verts})),
        n=n,
        m=m,
        assignments=AssignmentMap({(i, x): verts for i, verts in owned.items() for x in (0, 1)}),
        distribution=IIDDistribution(p),
        payoff=ConsistencyPayoff(),
    )


def star_game(n1: int, p: float = 0.5) -> GraphicGame:
    """Hub (player 1) sharing a vertex ``wj`` with each leaf ``j`` in ``2..n1``."""
    if n1 < 2:
        raise ValueError("star needs at least one leaf (n1 >= 2)")
    return network_game(n1, [(1, j, f"w{j}") for j in range(2, n1 + 1)], 1, p)


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
    """Stations A1-A2-A3-A4 in a line; A1 and A3, which share no pair, are players 1 and 2."""
    return network_game(4, [(1, 3, "e1"), (2, 3, "e2"), (2, 4, "e3")], 2, p)


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
