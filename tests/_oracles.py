"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles, separate
from the code under test: a dense 4-dimensional statevector simulation of
one entangled pair and a whole-game statevector simulation of up to four,
an enumeration of every measured-outcome tuple through the reference
referee, a direct subset-enumeration of the sharing index, an ungrouped
brute-force classical value, an exact-fraction response search and a
table-by-table exhaustive value for target games, and tiny random-game,
random-network, random-prior and random-strategy generators for property
tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from graphgame import (
    AssignmentMap,
    ConsistencyPayoff,
    Graph,
    GraphicGame,
    IIDDistribution,
    JointDistribution,
    QuantumStrategy,
    TargetFunction,
    TargetPayoff,
)
from graphgame.games import network_game
from graphgame.model import (
    OutputAssignment,
    bits_key,
    evaluate_payoff,
    input_vectors,
    input_weight,
)
from graphgame.quantum import OutputExpr

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


def _pair_vertices(game: GraphicGame) -> list[tuple[str, int, int]]:
    """(vertex, lower owner, higher owner) for every vertex with two owners."""
    owners: dict[str, set[int]] = {}
    for i in game.players:
        for x in (0, 1):
            for v in game.owned(i, x):
                owners.setdefault(v, set()).add(i)
    return [(v, *sorted(who)) for v, who in sorted(owners.items()) if len(who) == 2]


def _verdict(game: GraphicGame, strategy: QuantumStrategy, x, outcomes) -> int:
    """Reference referee on the outputs wired from ``outcomes[(player, vertex)]``."""
    values = {}
    for i in game.players:
        for v in game.owned(i, x[i - 1]):
            expr = strategy.wiring[(i, x[i - 1], v)]
            values[(i, v)] = expr.sign * math.prod(outcomes[(i, r)] for r in expr.refs)
    return evaluate_payoff(game, x, OutputAssignment(values)).verdict


def enumerated_quantum_value(game: GraphicGame, strategy: QuantumStrategy) -> float:
    """Exact value by walking every outcome tuple of the measured halves.

    Each tuple's probability is the product of ``(1 + a*b*cos(t_a - t_b))/4``
    over pairs measured on both sides and 1/2 per half measured alone; its
    verdict comes from ``evaluate_payoff``.
    """
    total = []
    for x in input_vectors(game.n):
        w = input_weight(game.distribution, x)
        if w == 0.0:
            continue
        halves = []  # per pair with a measured half: [((player, vertex), angle or None)]
        for v, a, b in _pair_vertices(game):
            sides = [((i, v), strategy.angles.get((i, v, x[i - 1]))) for i in (a, b)]
            if any(t is not None for _, t in sides):
                halves.append(sides)
        measured = [key for sides in halves for key, t in sides if t is not None]
        for signs in product((1, -1), repeat=len(measured)):
            outcomes = dict(zip(measured, signs))
            prob = w
            for (ka, ta), (kb, tb) in halves:
                if ta is not None and tb is not None:
                    prob *= (1.0 + outcomes[ka] * outcomes[kb] * math.cos(ta - tb)) / 4.0
                else:
                    prob *= 0.5
            if _verdict(game, strategy, x, outcomes):
                total.append(prob)
    return math.fsum(total)


def statevector_quantum_value(game: GraphicGame, strategy: QuantumStrategy) -> float:
    """Exact value from a statevector of every pair of the game (at most 4).

    The state is one ``_KET`` per two-owner vertex, qubit ``2k`` held by the
    lower owner of pair ``k``.  At each input every measured half gets the
    projectors ``_projector(angle, +-1)`` on a new outcome axis; the Born
    weights of the outcome tuples are the squared norms of the projected
    state, and each tuple's verdict comes from ``evaluate_payoff``.
    """
    pairs = _pair_vertices(game)
    if len(pairs) > 4:
        raise ValueError(f"statevector oracle takes at most 4 pairs, got {len(pairs)}")
    state = np.ones(1)
    for _ in pairs:
        state = np.kron(state, _KET)
    state = state.reshape((2,) * (2 * len(pairs)))
    total = []
    for x in input_vectors(game.n):
        w = input_weight(game.distribution, x)
        if w == 0.0:
            continue
        amp = state
        measured = []
        for k, (v, a, b) in enumerate(pairs):
            for q, i in ((2 * k, a), (2 * k + 1, b)):
                theta = strategy.angles.get((i, v, x[i - 1]))
                if theta is None:
                    continue
                proj = np.stack([_projector(theta, 1), _projector(theta, -1)])
                # The qubit axis q is replaced by (outcome, qubit); the qubit
                # goes back to q and the outcome axis stays last.
                amp = np.moveaxis(np.tensordot(amp, proj, axes=([q], [2])), -1, q)
                measured.append((i, v))
        born = (amp.reshape(state.size, -1) ** 2).sum(axis=0)
        for prob, signs in zip(born, product((1, -1), repeat=len(measured))):
            if _verdict(game, strategy, x, dict(zip(measured, signs))):
                total.append(w * float(prob))
    return math.fsum(total)


def random_quantum_strategy(rng: np.random.Generator, game: GraphicGame) -> QuantumStrategy:
    """Random angles on a random subset of held pair halves, random wiring.

    Every owned vertex is wired to a random sign times the product of a
    random subset of the halves its owner measures at that input.
    """
    angles = {}
    for v, a, b in _pair_vertices(game):
        for i in (a, b):
            for x in (0, 1):
                if v in game.owned(i, x) and rng.random() < 0.7:
                    angles[(i, v, x)] = float(rng.uniform(0.0, 2.0 * math.pi))
    wiring = {}
    for i in game.players:
        for x in (0, 1):
            mine = sorted(v for (p, v, xx) in angles if p == i and xx == x)
            for v in sorted(game.owned(i, x)):
                refs = tuple(r for r in mine if rng.random() < 0.5)
                wiring[(i, x, v)] = OutputExpr(int(rng.choice((1, -1))), refs)
    return QuantumStrategy(angles=angles, wiring=wiring)


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


def random_network(rng: np.random.Generator) -> GraphicGame:
    """A random connected network of 3-6 players, built by ``network_game``.

    The links, named ``e1, e2, ...`` in a random order, are a random
    spanning tree plus up to 2 extra links.  The low block is a random
    nonempty independent set of the network, relabelled to players
    ``1..m``.  The prior is iid with p drawn from 0.3, 0.5 and 0.7.
    """
    n = int(rng.integers(3, 7))
    # Node k hangs off a random earlier node, which makes a random spanning tree.
    edges = [(int(rng.integers(k)), k) for k in range(1, n)]
    spare = [e for e in combinations(range(n), 2) if e not in edges]
    edges += [spare[k] for k in rng.permutation(len(spare))[: int(rng.integers(3))]]
    linked = set(edges) | {(b, a) for a, b in edges}
    independent: list[int] = []
    for a in rng.permutation(n).tolist():
        if all((a, b) not in linked for b in independent):
            independent.append(a)
    low = independent[: int(rng.integers(1, len(independent) + 1))]
    high = [a for a in rng.permutation(n).tolist() if a not in low]
    label = {a: k for k, a in enumerate(low + high, 1)}
    order = rng.permutation(len(edges)).tolist()
    links = [(label[edges[k][0]], label[edges[k][1]], f"e{j}") for j, k in enumerate(order, 1)]
    return network_game(n, links, len(low), float(rng.choice((0.3, 0.5, 0.7))))


def random_joint_prior(rng, n):
    """A random joint table with one input string at probability zero."""
    keys = [bits_key(x) for x in input_vectors(n)]
    weights = rng.uniform(0.2, 1.0, size=len(keys))
    weights[rng.integers(len(keys))] = 0.0
    weights /= weights.sum()
    return JointDistribution(dict(zip(keys, weights.tolist())))


def random_target_game(rng: np.random.Generator) -> GraphicGame:
    """Small target game whose shared vertices carry up to three pairs.

    Every player owns a private vertex at both inputs; each shared vertex
    goes to two random players, each of whom owns it at one or both inputs.
    Targets are drawn from 2-3 values; the prior is iid or a random joint
    table with some inputs at probability zero.
    """
    n = int(rng.integers(2, 4))
    owned = {(i, x): [f"p{i}"] for i in range(1, n + 1) for x in (0, 1)}
    shared = [f"s{k}" for k in range(int(rng.integers(0, 4)))]
    for v in shared:
        for i in rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist():
            for x in ((0,), (1,), (0, 1))[int(rng.integers(3))]:
                owned[(i, x)].append(v)
    images = int(rng.integers(2, 4))
    tables = {
        i: {bits_key(x): int(rng.integers(images)) for x in input_vectors(n)}
        for i in range(1, n + 1)
    }
    if rng.random() < 0.5:
        dist = IIDDistribution(float(rng.uniform(0.2, 0.8)))
    else:
        weights = rng.random(2**n) * (rng.random(2**n) < 0.8)
        weights[int(rng.integers(2**n))] += 0.1
        weights /= weights.sum()
        dist = JointDistribution({bits_key(x): float(w) for x, w in zip(input_vectors(n), weights)})
    return GraphicGame(
        graph=Graph([f"p{i}" for i in range(1, n + 1)] + shared),
        n=n,
        m=1,
        assignments=AssignmentMap(owned),
        distribution=dist,
        payoff=TargetPayoff(TargetFunction(tables)),
    )


def many_pairs_target_game() -> GraphicGame:
    """Three players, a private vertex each and 16 two-owner vertices.

    Shared vertex ``k`` goes, at both inputs, to the ``k``-th owner pair of
    (1, 2), (2, 3), (1, 3), cycling.  Player ``i`` must name the OR of its
    own input and the next player's.  The prior is iid with ``p = 0.3``, so
    the search has to leave its complementary-pair start (0.37) to reach
    the classical optimum (0.784).
    """
    owned = {(i, x): [f"p{i}"] for i in (1, 2, 3) for x in (0, 1)}
    shared = [f"s{k:02d}" for k in range(16)]
    for k, v in enumerate(shared):
        for i in ((1, 2), (2, 3), (1, 3))[k % 3]:
            owned[(i, 0)].append(v)
            owned[(i, 1)].append(v)
    tables = {i: {bits_key(x): x[i - 1] | x[i % 3] for x in input_vectors(3)} for i in (1, 2, 3)}
    return GraphicGame(
        graph=Graph(["p1", "p2", "p3"] + shared),
        n=3,
        m=1,
        assignments=AssignmentMap(owned),
        distribution=IIDDistribution(0.3),
        payoff=TargetPayoff(TargetFunction(tables)),
    )


def response_search_value(game: GraphicGame, max_sweeps: int = 40, tolerance: float = 1e-12) -> float:
    """Classical response search of a target game in exact arithmetic.

    Each player answers from a table ``own input -> image``.  The tables
    start right on the first input ``x`` that maximises ``P(x) + P(~x)``;
    then the players best-respond in order, each taking at each own input
    the image that wins the most weight with the others' tables fixed, the
    lowest image on ties.  The search stops once a sweep gains less than
    ``tolerance``, after at most ``max_sweeps``.  Weights are exact
    fractions, so every tie is a true tie.
    """
    n = game.n
    tables = game.payoff.targets.tables
    dist = game.distribution

    def weight(x) -> Fraction:
        if isinstance(dist, JointDistribution):
            return Fraction(dist.table.get(bits_key(x), 0.0))
        p = Fraction(dist.p)
        return math.prod((p if b == 0 else 1 - p for b in x), start=Fraction(1))

    inputs = [(x, weight(x)) for x in product((0, 1), repeat=n)]
    start = max(product((0, 1), repeat=n), key=lambda x: weight(x) + weight(tuple(1 - b for b in x)))
    other = tuple(1 - b for b in start)
    table = {
        i: [tables[i][bits_key(start if b == start[i - 1] else other)] for b in (0, 1)]
        for i in range(1, n + 1)
    }

    def won(x, skip=None) -> bool:
        return all(table[j][x[j - 1]] == tables[j][bits_key(x)] for j in table if j != skip)

    def value() -> Fraction:
        return sum((w for x, w in inputs if won(x)), Fraction(0))

    now = value()
    for _ in range(max_sweeps):
        current = now
        for i in table:
            for b in (0, 1):
                score = {y: Fraction(0) for y in sorted(set(tables[i].values()))}
                for x, w in inputs:
                    if x[i - 1] == b and won(x, skip=i):
                        score[tables[i][bits_key(x)]] += w
                table[i][b] = max(score, key=score.get)
        now = value()
        if now - current < tolerance:
            break
    return float(now)


def exhaustive_target_value(tables, dist, n: int) -> float:
    """Exact optimum over response tables ``own bit -> image``, one table at a time.

    Every joint choice of tables, in product order, adds the weights of the
    inputs it wins in input order; the best total (or 0.0) is returned.
    """
    images = [sorted(set(tables[i].values())) for i in range(1, n + 1)]
    weighted = [(x, w) for x in input_vectors(n) if (w := input_weight(dist, x)) != 0.0]
    best = 0.0
    for responses in product(*(list(product(vals, repeat=2)) for vals in images)):
        total = 0.0
        for x, w in weighted:
            key = bits_key(x)
            if all(responses[i - 1][x[i - 1]] == tables[i][key] for i in range(1, n + 1)):
                total += w
        if total > best:
            best = total
    return best


def random_target_tables(rng: np.random.Generator, n: int):
    """Target tables of n players with 1-3 images each, and a prior.

    The prior is iid or a joint table that leaves some strings absent and
    lists others at weight zero.
    """
    tables = {}
    for i in range(1, n + 1):
        images = rng.choice(7, size=int(rng.integers(1, 4)), replace=False).tolist()
        tables[i] = {bits_key(x): images[int(rng.integers(len(images)))] for x in input_vectors(n)}
    if rng.random() < 0.5:
        return tables, IIDDistribution(float(rng.choice((0.5, rng.uniform(0.05, 0.95)))))
    weights = rng.random(2**n)
    kind = rng.integers(3, size=2**n)  # 0: absent, 1: listed at zero, 2: weighted
    kind[int(rng.integers(2**n))] = 2
    weights[kind < 2] = 0.0
    weights /= weights.sum()
    table = {bits_key(x): float(w) for x, w, k in zip(input_vectors(n), weights, kind) if k}
    return tables, JointDistribution(table)


def random_assignment(rng: np.random.Generator, game: GraphicGame, x) -> dict:
    return {
        (i, v): int(rng.choice((1, -1)))
        for i in game.players
        for v in game.owned(i, x[i - 1])
    }
