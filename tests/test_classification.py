from itertools import combinations

import numpy as np
import pytest

from graphgame import (
    COMMON_INTERSECTION,
    PAIRWISE_CLIQUE,
    AssignmentMap,
    ConsistencyPayoff,
    Graph,
    GraphGameError,
    GraphicGame,
    IIDDistribution,
    classify,
    independence_number,
    players_sharing_with,
    sharing_index,
    sharing_structure,
    tuple_level_nonempty,
)
from graphgame.classification import PlayerBudgetError
from graphgame import games

from _oracles import naive_sharing_index, random_game


class TestNeighborSets:
    def test_star_center_sees_all_leaves(self):
        g = games.star_game(4)
        assert players_sharing_with(g, 1) == {2, 3, 4}

    def test_trivial_game_sees_nobody(self):
        assert players_sharing_with(games.trivial_game(), 1) == frozenset()

    def test_universal_quantifier(self):
        # Sharing at only some inputs does not count.
        g = games.disconnected_game()
        assert players_sharing_with(g, 1) == frozenset()
        assert players_sharing_with(g, 2) == frozenset()

    def test_low_block_only(self):
        with pytest.raises(GraphGameError):
            players_sharing_with(games.star_game(3), 2)


class TestTupleLevels:
    def test_cube_triple_intersection(self):
        g = games.cube_game(3)
        assert tuple_level_nonempty(g, 1, 3, COMMON_INTERSECTION)

    def test_star_has_no_triples(self):
        g = games.star_game(4)
        assert not tuple_level_nonempty(g, 1, 3, COMMON_INTERSECTION)
        assert not tuple_level_nonempty(g, 1, 3, PAIRWISE_CLIQUE)

    def test_fully_shared_triple(self):
        g = games.shared_game(3, s=3)
        assert tuple_level_nonempty(g, 1, 3, COMMON_INTERSECTION)

    def test_downward_closed(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            g = random_game(rng)
            top = g.n - g.m + 1
            for i in range(1, g.m + 1):
                for semantics in (COMMON_INTERSECTION, PAIRWISE_CLIQUE):
                    levels = [
                        tuple_level_nonempty(g, i, s, semantics)
                        for s in range(2, top + 1)
                    ]
                    for lower, upper in zip(levels, levels[1:]):
                        if upper:
                            assert lower, semantics


class TestSharingIndex:
    def test_known_values(self):
        assert sharing_index(games.star_game(3), 1) == 2
        assert sharing_index(games.cube_game(3), 1) == 3
        assert sharing_index(games.shared_game(3), 1) == 3

    def test_isolated_player_has_none(self):
        assert sharing_index(games.trivial_game(), 1) is None

    def test_at_least_two_when_defined(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            g = random_game(rng)
            for i in range(1, g.m + 1):
                idx = sharing_index(g, i)
                assert idx is None or idx >= 2

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(80):
            g = random_game(rng)
            for i in range(1, g.m + 1):
                assert sharing_index(g, i, COMMON_INTERSECTION) == naive_sharing_index(g, i)

    def test_triangle_semantics_disagree(self):
        # Pairwise-distinct shared vertices: no common triple, but the three
        # players do form a pairwise clique.
        g = games.triangle_game()
        assert sharing_index(g, 1, COMMON_INTERSECTION) == 2
        assert sharing_index(g, 1, PAIRWISE_CLIQUE) == 3

    def test_semantics_agree_on_pair_only_networks(self):
        # When every region belongs to exactly two players and no further
        # pair shares anything, both notions collapse to index 2.
        for build in (lambda: games.star_game(4), games.chain_game, games.chsh_game):
            g = build()
            for i in range(1, g.m + 1):
                common = sharing_index(g, i, COMMON_INTERSECTION)
                clique = sharing_index(g, i, PAIRWISE_CLIQUE)
                assert common == clique == 2


class TestClassify:
    def test_fixture_table(self):
        expectations = {
            "chsh": "QuantumAdvantage",
            "star3": "QuantumAdvantage",
            "star4": "QuantumAdvantage",
            "chain4": "QuantumAdvantage",
            "shared3": "NoQuantumAdvantage",
            "trivial": "Trivial",
            "disconnected": "NoSharedVertices",
        }
        for name, expected in expectations.items():
            result = classify(games.FIXTURES[name]())
            assert result.verdict == expected, name

    def test_cube_no_advantage_despite_perfect_value(self):
        # The hypercube game is classically winnable outright; its sharing
        # index still rules out any quantum gap, which is the stronger and
        # still-true statement.
        result = classify(games.cube_game(3))
        assert result.verdict == "NoQuantumAdvantage"
        assert result.classical_value_used == pytest.approx(1.0, abs=1e-12)
        assert result.indices.indices[1] == 3

    def test_trivial_reports_value_one(self):
        result = classify(games.trivial_game())
        assert result.verdict == "Trivial"
        assert result.classical_value_used == pytest.approx(1.0, abs=1e-12)

    def test_supplied_value_is_used(self):
        result = classify(games.star_game(3), omega_c=0.625)
        assert result.verdict == "QuantumAdvantage"
        assert result.classical_value_used == 0.625

    def test_budget_exhaustion_degrades_to_unknown(self):
        result = classify(games.star_game(3), budget=1)
        assert result.verdict == "Unknown"
        assert result.classical_value_used is None

    def test_deterministic(self):
        a = classify(games.chain_game())
        b = classify(games.chain_game())
        assert a == b

    def test_structure_fields(self):
        s = sharing_structure(games.star_game(4))
        assert s.neighbor_sets[1] == {2, 3, 4}
        assert s.tuple_levels[1][2] is True
        assert s.tuple_levels[1][3] is False
        assert s.indices[1] == 2
        assert s.semantics_used == COMMON_INTERSECTION


class TestIndependenceNumber:
    def test_chain_of_four(self):
        assert independence_number(games.chain_game()) == 2

    def test_star_leaves(self):
        assert independence_number(games.star_game(4)) == 3

    def test_fully_shared(self):
        assert independence_number(games.shared_game(3)) == 1

    def test_budget(self):
        with pytest.raises(PlayerBudgetError):
            independence_number(games.star_game(4), budget=2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        cases = [games.star_game(n1) for n1 in range(2, 7)] + [random_game(rng, max_vertices=6) for _ in range(40)]
        for _ in range(40):  # 3-7 players, sparse random ownership
            n = int(rng.integers(3, 8))
            owned = {(i, x): [f"v{k}" for k in range(6) if rng.random() < 0.2] for i in range(1, n + 1) for x in (0, 1)}
            cases.append(GraphicGame(Graph([f"v{k}" for k in range(6)]), n, 1, AssignmentMap(owned),
                                     IIDDistribution(0.5), ConsistencyPayoff()))
        for g in cases:
            def shares(i, j):
                return any(g.owned(i, a) & g.owned(j, b) for a in (0, 1) for b in (0, 1))

            best = max(
                len(players)
                for size in range(g.n + 1)
                for players in combinations(g.players, size)
                if not any(shares(i, j) for i, j in combinations(players, 2))
            )
            assert independence_number(g) == best
