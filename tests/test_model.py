import dataclasses
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgame import (
    AssignmentMap,
    ConsistencyPayoff,
    DeterministicStrategy,
    Graph,
    GraphGameError,
    GraphicGame,
    IIDDistribution,
    JointDistribution,
    OutputAssignment,
    QuantumStrategy,
    SessionConfig,
    build_strategy,
    classical_value,
    evaluate_payoff,
    evaluate_target_payoff,
    input_probability,
    input_vectors,
    run_session,
    shared_region,
    validate_game,
)
from graphgame.model import AssignmentDomainError, DistributionError, TargetTableError, input_weight
from graphgame import games
from graphgame.io import StrategyFileError, _strategy_entries
from graphgame.quantum import StrategyError, validate_strategy
from graphgame.runner import StrategyMismatchError

from _oracles import random_assignment, random_game, random_joint_prior


def make_game(owned, n, m, vertices, p=0.5):
    return GraphicGame(
        graph=Graph(vertices),
        n=n,
        m=m,
        assignments=AssignmentMap(owned),
        distribution=IIDDistribution(p),
        payoff=ConsistencyPayoff(),
    )


def test_game_fills_absent_keys_without_touching_the_given_map():
    given = AssignmentMap({(1, 0): ["a"], (2, 1): ["a"]})
    game = GraphicGame(Graph(["a"]), 2, 1, given, IIDDistribution(0.5), ConsistencyPayoff())
    assert set(given.owned) == {(1, 0), (2, 1)}
    assert game.assignments.owned == {(1, 0): {"a"}, (1, 1): set(), (2, 0): set(), (2, 1): {"a"}}
    assert game.assignments.owned[(1, 0)] is given.owned[(1, 0)]


class TestValidate:
    def test_chsh_is_clean(self):
        assert validate_game(games.chsh_game()) == []

    def test_low_block_overlap_reported_once(self):
        g = make_game(
            {(1, 1): ["v1"], (2, 1): ["v1"], (3, 0): ["v1"]},
            n=3,
            m=2,
            vertices=["v1"],
        )
        violations = [v for v in validate_game(g) if v.code == "disjointness"]
        assert len(violations) == 1
        assert violations[0].player == 1 and violations[0].other_player == 2

    def test_dangling_vertex_reported(self):
        g = make_game({(1, 0): ["v9"], (2, 0): ["v1"]}, n=2, m=1, vertices=["v1"])
        violations = [v for v in validate_game(g) if v.code == "unknown-vertex"]
        assert len(violations) == 1
        assert violations[0].vertex == "v9"

    def test_bad_m(self):
        g = make_game({(1, 0): ["v1"]}, n=2, m=2, vertices=["v1"])
        assert any(v.code == "bad-m" for v in validate_game(g))

    def test_joint_table_checked(self):
        g = GraphicGame(
            graph=Graph(["v1"]),
            n=2,
            m=1,
            assignments=AssignmentMap({(1, 0): ["v1"]}),
            distribution=JointDistribution({"00": 0.5, "111": 0.6}),
            payoff=ConsistencyPayoff(),
        )
        codes = {v.code for v in validate_game(g)}
        assert "bad-distribution" in codes

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_joint_probability(self, bad):
        table = {"00": 0.5, "01": 0.5, "10": 0.0, "11": bad}
        g = GraphicGame(
            graph=Graph(["v1"]),
            n=2,
            m=1,
            assignments=AssignmentMap({(1, 0): ["v1"], (2, 0): ["v1"]}),
            distribution=JointDistribution(table),
            payoff=ConsistencyPayoff(),
        )
        assert [v.code for v in validate_game(g)][:1] == ["bad-distribution"]
        assert any("'11'" in v.message for v in validate_game(g))


class TestSharedRegion:
    def test_chsh_regions_follow_input(self):
        g = games.chsh_game()
        for x2 in (0, 1):
            assert shared_region(g, 1, 2, 0, x2) == {"v1"}
            assert shared_region(g, 1, 2, 1, x2) == {"v2"}

    def test_star_center_vs_leaf(self):
        g = games.star_game(4)
        for j in (2, 3, 4):
            for xi in (0, 1):
                for xj in (0, 1):
                    assert shared_region(g, 1, j, xi, xj) == {f"w{j}"}

    def test_disjoint_ownership_empty(self):
        g = games.trivial_game()
        assert shared_region(g, 1, 2, 0, 0) == frozenset()

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_game(rng)
            for i in g.players:
                for j in g.players:
                    if i == j:
                        continue
                    for xi in (0, 1):
                        for xj in (0, 1):
                            assert shared_region(g, i, j, xi, xj) == shared_region(g, j, i, xj, xi)

    def test_errors(self):
        g = games.chsh_game()
        with pytest.raises(GraphGameError):
            shared_region(g, 1, 1, 0, 0)
        with pytest.raises(GraphGameError):
            shared_region(g, 1, 5, 0, 0)


class TestEvaluatePayoff:
    def test_all_plus_wins_at_00(self):
        g = games.chsh_game()
        y = OutputAssignment({(1, "v1"): 1, (2, "v1"): 1, (2, "v2"): 1})
        assert evaluate_payoff(g, (0, 0), y).verdict == 1

    def test_anticorrelation_needed_at_11(self):
        g = games.chsh_game()
        y_plus = OutputAssignment({(1, "v2"): 1, (2, "v1"): 1, (2, "v2"): 1})
        assert evaluate_payoff(g, (1, 1), y_plus).verdict == 0
        y_minus = OutputAssignment({(1, "v2"): -1, (2, "v1"): 1, (2, "v2"): 1})
        assert evaluate_payoff(g, (1, 1), y_minus).verdict == 1

    def test_chsh_truth_table(self):
        # The two-vertex game is the CHSH predicate once the second player's
        # total-product condition forces its two signs equal.
        g = games.chsh_game()
        for x1 in (0, 1):
            for x2 in (0, 1):
                for a in (1, -1):
                    for b1 in (1, -1):
                        for b2 in (1, -1):
                            y = OutputAssignment(
                                {(1, f"v{x1 + 1}"): a, (2, "v1"): b1, (2, "v2"): b2}
                            )
                            got = evaluate_payoff(g, (x1, x2), y).verdict
                            expected = int(b1 == b2 and a * b1 == (-1) ** (x1 * x2))
                            assert got == expected

    def test_breakdown_products(self):
        g = games.chsh_game()
        y = OutputAssignment({(1, "v2"): -1, (2, "v1"): -1, (2, "v2"): -1})
        b = evaluate_payoff(g, (1, 1), y)
        assert b.solo_products == {2: 1}
        assert b.region_products[(1, 2)] == (-1, -1)
        assert b.verdict == 0  # product +1 where -1 is required

    def test_domain_mismatch(self):
        g = games.chsh_game()
        with pytest.raises(AssignmentDomainError):
            evaluate_payoff(g, (0, 0), OutputAssignment({(1, "v1"): 1, (2, "v1"): 1}))
        with pytest.raises(AssignmentDomainError):
            evaluate_payoff(
                g,
                (0, 0),
                OutputAssignment({(1, "v1"): 2, (2, "v1"): 1, (2, "v2"): 1}),
            )

    def test_cross_pair_region_product_gauge(self):
        # Flipping the sign both high-block players give a shared vertex
        # flips both region products, never their product.
        g = make_game(
            {
                (1, 0): ["a"], (1, 1): ["a"],
                (2, 0): ["a", "u"], (2, 1): ["a", "u"],
                (3, 0): ["u"], (3, 1): ["u"],
            },
            n=3,
            m=1,
            vertices=["a", "u"],
        )
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = tuple(rng.integers(0, 2, size=3))
            values = random_assignment(rng, g, x)
            before = evaluate_payoff(g, x, OutputAssignment(values))
            flipped = dict(values)
            flipped[(2, "u")] *= -1
            flipped[(3, "u")] *= -1
            after = evaluate_payoff(g, x, OutputAssignment(flipped))
            zi, zj = before.region_products[(2, 3)]
            zi2, zj2 = after.region_products[(2, 3)]
            assert zi * zj == zi2 * zj2

    def test_gauge_with_private_compensation(self):
        # With a private vertex per high-block player the flip can be
        # compensated, leaving the whole verdict unchanged.
        g = make_game(
            {
                (1, 0): ["a"], (1, 1): ["a"],
                (2, 0): ["a", "u", "s2"], (2, 1): ["a", "u", "s2"],
                (3, 0): ["u", "s3"], (3, 1): ["u", "s3"],
            },
            n=3,
            m=1,
            vertices=["a", "u", "s2", "s3"],
        )
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = tuple(rng.integers(0, 2, size=3))
            values = random_assignment(rng, g, x)
            before = evaluate_payoff(g, x, OutputAssignment(values)).verdict
            flipped = dict(values)
            for key in ((2, "u"), (3, "u"), (2, "s2"), (3, "s3")):
                flipped[key] *= -1
            after = evaluate_payoff(g, x, OutputAssignment(flipped)).verdict
            assert before == after

    def test_verdict_and_products_are_signs(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            g = random_game(rng)
            x = tuple(rng.integers(0, 2, size=g.n))
            b = evaluate_payoff(g, x, OutputAssignment(random_assignment(rng, g, x)))
            assert b.verdict in (0, 1)
            assert all(s in (1, -1) for s in b.solo_products.values())
            assert all(
                zi in (1, -1) and zj in (1, -1) for zi, zj in b.region_products.values()
            )


class TestStrictSigns:
    """A sign is the int +1 or -1: the referee, the quantum and simulator
    strategy checks and the strategy-file reader each refuse look-alikes."""

    BAD = [True, -1.0, np.int64(1)]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_referee(self, bad):
        with pytest.raises(AssignmentDomainError, match="must be \\+1 or -1"):
            evaluate_payoff(games.chsh_game(), (0, 0), OutputAssignment({(1, "v1"): bad, (2, "v1"): 1, (2, "v2"): 1}))

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_quantum_strategy(self, bad):
        g = games.chsh_game()
        strategy, model = build_strategy(g)
        key = min(strategy.wiring)
        wiring = {**strategy.wiring, key: dataclasses.replace(strategy.wiring[key], sign=bad)}
        with pytest.raises(StrategyError, match="sign must be"):
            validate_strategy(g, QuantumStrategy(angles=strategy.angles, wiring=wiring), model)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_simulated_strategy(self, bad):
        g = games.chsh_game()
        signs = dict(classical_value(g)[1].signs)
        signs[min(signs)] = bad
        config = SessionConfig(rounds=5, seed=1, strategy=DeterministicStrategy(signs=signs))
        with pytest.raises(StrategyMismatchError, match="must be \\+1/-1"):
            run_session(g, config)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_strategy_file_entry(self, bad):
        data = {"signs": [{"player": 1, "input": 0, "vertex": "v1", "sign": bad}]}
        with pytest.raises(StrategyFileError, match="sign must be the integer 1 or -1"):
            _strategy_entries(data, "signs", {"player", "input", "vertex", "sign"}, "sign entry")


class TestRefereeChecks:
    @staticmethod
    def assignments(rng, game, x):
        keys = [(i, v) for i in game.players for v in sorted(game.owned(i, x[i - 1]))]
        if len(keys) <= 12:
            return [dict(zip(keys, signs)) for signs in product((1, -1), repeat=len(keys))]
        return [random_assignment(rng, game, x) for _ in range(64)]

    def test_checks_hold_exactly_when_the_referee_accepts(self):
        rng = np.random.default_rng(11)
        fixtures = [build() for build in games.FIXTURES.values()]
        consistency = [g for g in fixtures if isinstance(g.payoff, ConsistencyPayoff)]
        seen = {0: 0, 1: 0}
        for g in consistency + [random_game(rng) for _ in range(100)]:
            for x in input_vectors(g.n):
                checks = [
                    check for (i, xi, j, xj), check in g.checks.items() if (x[i - 1], x[j - 1]) == (xi, xj)
                ]
                assert all(x[i - 1] == xi for sides, _ in checks for i, xi, _ in sides)
                for values in self.assignments(rng, g, x):
                    held = all(
                        math.prod(values[(i, v)] for i, _, verts in sides for v in verts)
                        == (-1) ** parity
                        for sides, parity in checks
                    )
                    verdict = evaluate_payoff(g, x, OutputAssignment(values)).verdict
                    assert held == (verdict == 1), (g, x, values)
                    seen[verdict] += 1
        assert min(seen.values()) > 1000

    def test_table_is_built_once_on_first_use(self):
        g = games.star_game(66)
        assert "checks" not in vars(g)
        assert g.checks is g.checks
        # Each of the 65 leaves has a solo product at both inputs and a region
        # with the hub at all four input pairs.
        assert len(g.checks) == 65 * 2 + 65 * 4 == 390


class TestCompiledTables:
    @staticmethod
    def cases():
        rng = np.random.default_rng(29)
        fixtures = [build() for build in games.FIXTURES.values()]
        randoms = [random_game(rng, max_vertices=6) for _ in range(40)]
        joint = [dataclasses.replace(g, distribution=random_joint_prior(rng, g.n)) for g in randoms[:20]]
        return fixtures + randoms + joint

    def test_tables_are_built_once_on_first_use(self):
        g = games.star_game(3, 0.3)
        assert "inputs" not in vars(g) and "owners" not in vars(g)
        assert g.inputs is g.inputs
        assert g.owners is g.owners

    def test_inputs_match_an_independent_enumeration(self):
        cases = self.cases()
        assert any(0.0 in g.distribution.table.values() for g in cases if isinstance(g.distribution, JointDistribution))
        for g in cases:
            weighted = [(x, w) for x in input_vectors(g.n) if (w := input_weight(g.distribution, x)) != 0.0]
            want = tuple(
                (x, w, tuple(key for key in g.checks if (x[key[0] - 1], x[key[2] - 1]) == (key[1], key[3])))
                for x, w in weighted
            )
            assert g.inputs == want

    def test_owners_match_a_brute_count(self):
        for g in self.cases():
            vertices = sorted({v for verts in g.assignments.owned.values() for v in verts})
            want = [(v, tuple(i for i in g.players if v in g.owned(i, 0) | g.owned(i, 1))) for v in vertices]
            assert list(g.owners.items()) == want


class TestTargetPayoff:
    def test_gyni_examples(self):
        g = games.gyni_game()
        assert evaluate_target_payoff(g, (0, 0, 0), (0, 0, 0)) == 1
        assert evaluate_target_payoff(g, (0, 1, 0), (1, 0, 0)) == 1
        assert evaluate_target_payoff(g, (0, 1, 0), (0, 0, 0)) == 0

    def test_missing_entry(self):
        g = games.gyni_game()
        broken = GraphicGame(
            graph=g.graph,
            n=g.n,
            m=g.m,
            assignments=g.assignments,
            distribution=g.distribution,
            payoff=type(g.payoff)(
                type(g.payoff.targets)({1: {"000": 0}, 2: {"000": 0}, 3: {"000": 0}})
            ),
        )
        with pytest.raises(TargetTableError):
            evaluate_target_payoff(broken, (1, 1, 1), (0, 0, 0))


class TestInputProbability:
    def test_uniform_pair(self):
        assert input_probability(IIDDistribution(0.5), (0, 1)) == 0.25

    def test_skewed_triple(self):
        assert input_probability(IIDDistribution(0.7), (1, 1, 1)) == pytest.approx(0.027, abs=1e-12)

    def test_joint_lookup(self):
        d = JointDistribution({"00": 0.4, "01": 0.1, "10": 0.1, "11": 0.4})
        assert input_probability(d, (0, 0)) == 0.4

    def test_joint_missing_entry(self):
        with pytest.raises(DistributionError):
            input_probability(JointDistribution({"00": 1.0}), (1, 1))

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_iid_sums_to_one(self, p, n):
        total = math.fsum(input_probability(IIDDistribution(p), x) for x in input_vectors(n))
        assert abs(total - 1.0) <= 1e-12

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_joint_sums_to_one(self, raw):
        total = sum(raw)
        table = {
            key: value / total for key, value in zip(("00", "01", "10", "11"), raw)
        }
        d = JointDistribution(table)
        s = math.fsum(input_probability(d, x) for x in input_vectors(2))
        assert abs(s - 1.0) <= 1e-12
