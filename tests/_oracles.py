"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles, separate
from the code under test: a dense 4-dimensional statevector simulation of
one entangled pair, a direct subset-enumeration of the sharing index, an
ungrouped brute-force classical value, and a tiny random-game generator for
property tests.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from graphgame import AssignmentMap, ConsistencyPayoff, Graph, GraphicGame, IIDDistribution
from graphgame.model import OutputAssignment, evaluate_payoff, input_vectors, input_weight

_KET = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)  # (|00> + |11>)/sqrt(2)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_I = np.eye(2)


def _projector(theta: float, sign: int) -> np.ndarray:
    obs = math.cos(theta) * _Z + math.sin(theta) * _X
    return (_I + sign * obs) / 2.0


def statevector_pair_probs(theta_a: float, theta_b: float) -> tuple[float, float, float, float]:
    """Born-rule P(a, b) from the explicit two-qubit state."""
    out = []
    for a in (1, -1):
        for b in (1, -1):
            op = np.kron(_projector(theta_a, a), _projector(theta_b, b))
            out.append(float(_KET @ op @ _KET))
    return tuple(out)  # order: (+,+), (+,-), (-,+), (-,-)


def statevector_correlator(theta_a: float, theta_b: float) -> float:
    pp, pm, mp, mm = statevector_pair_probs(theta_a, theta_b)
    return pp - pm - mp + mm


def naive_sharing_index(game: GraphicGame, i: int) -> int | None:
    """Sharing index by direct subset enumeration, no shortcuts shared with
    the implementation under test."""
    others = []
    for j in range(game.m + 1, game.n + 1):
        if all(game.owned(i, xi) & game.owned(j, xj) for xi in (0, 1) for xj in (0, 1)):
            others.append(j)
    if not others:
        return None
    best = None
    for s in range(2, len(others) + 2):
        found = False
        for combo in combinations(others, s - 1):
            members = (i,) + combo
            ok = True
            for bits in product((0, 1), repeat=s):
                common = None
                for player, xp in zip(members, bits):
                    owned = game.owned(player, xp)
                    common = owned if common is None else (common & owned)
                if not common:
                    ok = False
                    break
            if ok:
                found = True
                break
        if found:
            best = s
    return best


def sign_slots(game: GraphicGame) -> list[tuple[int, int, str]]:
    """Every owned (player, input, vertex), in a fixed order."""
    return [(i, x, v) for i in game.players for x in (0, 1) for v in sorted(game.owned(i, x))]


def brute_force_scores(game: GraphicGame) -> np.ndarray:
    """Referee score of every deterministic strategy, with no grouping.

    Entry ``code`` scores the strategy whose sign at ``sign_slots(game)[k]``
    is -1 exactly when bit ``len(slots) - 1 - k`` of ``code`` is set.  Each
    input's verdict is tabulated by ``evaluate_payoff`` over every sign of
    the slots that input reads; the weights are summed in input order.
    """
    slots = sign_slots(game)
    codes = np.arange(1 << len(slots))
    total = np.zeros(len(codes))
    for x in input_vectors(game.n):
        w = input_weight(game.distribution, x)
        if w == 0.0:
            continue
        read = [k for k, (i, xi, _) in enumerate(slots) if xi == x[i - 1]]
        verdicts = np.array(
            [
                evaluate_payoff(
                    game,
                    x,
                    OutputAssignment({(slots[k][0], slots[k][2]): s for k, s in zip(read, signs)}),
                ).verdict
                for signs in product((1, -1), repeat=len(read))
            ]
        )
        row = np.zeros_like(codes)
        for k in read:
            row = 2 * row + ((codes >> (len(slots) - 1 - k)) & 1)
        total += w * verdicts[row]
    return total


def brute_force_classical_value(game: GraphicGame) -> float:
    return float(brute_force_scores(game).max())


def random_game(rng: np.random.Generator, max_vertices: int = 4) -> GraphicGame:
    """Small well-formed consistency game with random ownership."""
    n = int(rng.integers(2, 4))
    m = int(rng.integers(1, n))
    n_vertices = int(rng.integers(1, max_vertices + 1))
    vertices = [f"v{k}" for k in range(n_vertices)]
    owned: dict[tuple[int, int], list[str]] = {}
    for i in range(1, n + 1):
        for x in (0, 1):
            picks = [v for v in vertices if rng.random() < 0.6]
            owned[(i, x)] = picks
    # Enforce pairwise-disjoint low-block ownership at input 1.
    taken: set[str] = set()
    for i in range(1, m + 1):
        owned[(i, 1)] = [v for v in owned[(i, 1)] if v not in taken]
        taken |= set(owned[(i, 1)])
    return GraphicGame(
        graph=Graph(vertices),
        n=n,
        m=m,
        assignments=AssignmentMap(owned),
        distribution=IIDDistribution(0.5),
        payoff=ConsistencyPayoff(),
    )


def random_assignment(rng: np.random.Generator, game: GraphicGame, x) -> dict:
    return {
        (i, v): int(rng.choice((1, -1)))
        for i in game.players
        for v in game.owned(i, x[i - 1])
    }
