import dataclasses
import math
import time

import numpy as np
import pytest

from graphgame import (
    ClosedFormParams,
    DeterministicStrategy,
    GraphGameError,
    IIDDistribution,
    MultiwaySharedVertexError,
    OptimizeOptions,
    PairBudgetError,
    QuantumStrategy,
    build_pair_model,
    build_strategy,
    classical_value,
    closed_form_star_classical,
    closed_form_star_quantum,
    deterministic_as_quantum,
    epr_correlator,
    exact_quantum_value,
    gyni_classical_bound,
    optimize_quantum,
    pair_outcome_distribution,
    strategy_value,
    target_classical_value,
    target_quantum_probe,
    trig_power_mean_holds,
    unbalanced_chsh_has_advantage,
)
from graphgame.quantum import OutputExpr, StrategyError, _Angles, _Evaluator, validate_strategy
from graphgame import games

from _oracles import (
    enumerated_quantum_value,
    many_pairs_target_game,
    random_game,
    random_quantum_strategy,
    random_target_game,
    response_search_value,
    statevector_correlator,
    statevector_pair_probs,
    statevector_quantum_value,
)

CHSH_QUANTUM = (2.0 + math.sqrt(2.0)) / 4.0


def chsh_canonical_strategy():
    strategy, _ = build_strategy(games.chsh_game())
    return strategy.with_angles(
        {
            (1, "v1", 0): 0.0,
            (1, "v1", 1): math.pi / 2,
            (2, "v1", 0): math.pi / 4,
            (2, "v1", 1): -math.pi / 4,
        }
    )


class TestPairStatistics:
    def test_correlator_examples(self):
        assert epr_correlator(0.3, 0.3) == pytest.approx(1.0, abs=1e-15)
        assert epr_correlator(0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert epr_correlator(0.0, math.pi / 4) == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_distribution_examples(self):
        assert pair_outcome_distribution(0.0, 0.0) == pytest.approx((0.5, 0.0, 0.0, 0.5), abs=1e-15)
        assert pair_outcome_distribution(0.0, math.pi) == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=1e-12)
        assert pair_outcome_distribution(0.0, math.pi / 3)[0] == pytest.approx(0.375, abs=1e-12)

    def test_unmeasured_side_is_fair(self):
        assert pair_outcome_distribution(None, 0.7) == (0.25, 0.25, 0.25, 0.25)

    def test_marginals_uniform(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            ta, tb = rng.uniform(0, 2 * math.pi, size=2)
            pp, pm, mp, mm = pair_outcome_distribution(ta, tb)
            assert pp + pm == pytest.approx(0.5, abs=1e-12)
            assert pp + mp == pytest.approx(0.5, abs=1e-12)

    def test_statevector_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            ta, tb = rng.uniform(0, 2 * math.pi, size=2)
            assert epr_correlator(ta, tb) == pytest.approx(statevector_correlator(ta, tb), abs=1e-12)
            got = pair_outcome_distribution(ta, tb)
            want = statevector_pair_probs(ta, tb)
            assert got == pytest.approx(want, abs=1e-12)


class TestExactValue:
    def test_chsh_canonical(self):
        value = exact_quantum_value(games.chsh_game(), chsh_canonical_strategy())
        assert value == pytest.approx(CHSH_QUANTUM, abs=1e-12)

    def test_chsh_aligned_angles(self):
        strategy, _ = build_strategy(games.chsh_game())  # all angles zero
        assert exact_quantum_value(games.chsh_game(), strategy) == pytest.approx(0.75, abs=1e-15)

    def test_trivial_game_deterministic(self):
        strategy, _ = build_strategy(games.trivial_game())
        assert exact_quantum_value(games.trivial_game(), strategy) == pytest.approx(1.0, abs=1e-15)

    def test_deterministic_wiring_matches_classical_referee(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            g = random_game(rng)
            try:
                build_pair_model(g)
            except MultiwaySharedVertexError:
                continue
            _, witness = classical_value(g)
            flips = {
                key: int(rng.choice((1, -1))) * sign for key, sign in witness.signs.items()
            }
            det = type(witness)(signs=flips, index=0)
            assert exact_quantum_value(g, deterministic_as_quantum(g, det)) == pytest.approx(
                strategy_value(g, det), abs=1e-12
            )

    def test_multiway_rejected_by_default(self):
        g = games.shared_game(3)
        strategy, _ = build_strategy(g, allow_multiway=True)
        with pytest.raises(MultiwaySharedVertexError):
            exact_quantum_value(g, strategy)

    def test_multiway_unentangled_value(self):
        g = games.shared_game(3)
        strategy, _ = build_strategy(g, allow_multiway=True)
        assert exact_quantum_value(g, strategy, allow_multiway=True) == pytest.approx(0.625, abs=1e-15)

    def test_pair_budget(self):
        g = games.star_game(4)
        strategy, _ = build_strategy(g)
        with pytest.raises(PairBudgetError):
            exact_quantum_value(g, strategy, pair_budget=2)

    def test_wiring_validation(self):
        g = games.chsh_game()
        strategy, model = build_strategy(g)
        broken = QuantumStrategy(angles={}, wiring=dict(strategy.wiring))
        with pytest.raises(StrategyError):
            validate_strategy(g, broken, model)

    @pytest.mark.parametrize("key", [(3, 0, "v1"), (1, 2, "v1")], ids=["player", "input"])
    def test_wiring_outside_the_game_rejected(self, key):
        g = games.chsh_game()
        strategy, model = build_strategy(g)
        broken = QuantumStrategy(angles=dict(strategy.angles), wiring={**strategy.wiring, key: OutputExpr(1)})
        with pytest.raises(StrategyError, match="no such player or input"):
            validate_strategy(g, broken, model)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        g = games.chsh_game()
        strategy, model = build_strategy(g)
        key = sorted(strategy.angles)[0]
        broken = strategy.with_angles({**strategy.angles, key: bad})
        with pytest.raises(StrategyError, match="not finite"):
            validate_strategy(g, broken, model)
        with pytest.raises(StrategyError):
            exact_quantum_value(g, broken)


class TestOracleAgreement:
    """exact_quantum_value against the outcome-tuple and statevector oracles."""

    @staticmethod
    def assert_agrees(game, strategy):
        value = exact_quantum_value(game, strategy, allow_multiway=True)
        assert value == pytest.approx(enumerated_quantum_value(game, strategy), abs=1e-12)
        assert value == pytest.approx(statevector_quantum_value(game, strategy), abs=1e-12)

    @pytest.mark.parametrize(
        "game",
        [games.chsh_game(), games.star_game(3, 0.3), games.star_game(4), games.chain_game(0.7)],
        ids=["chsh", "star3", "star4", "chain4"],
    )
    def test_named_games(self, game):
        rng = np.random.default_rng(21)
        template, _ = build_strategy(game)
        for _ in range(3):
            self.assert_agrees(
                game,
                template.with_angles(
                    {key: float(rng.uniform(0.0, 2.0 * math.pi)) for key in template.angles}
                ),
            )
            self.assert_agrees(game, random_quantum_strategy(rng, game))

    def test_random_games(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            game = random_game(rng)
            template, _ = build_strategy(game, allow_multiway=True)
            self.assert_agrees(
                game,
                template.with_angles(
                    {key: float(rng.uniform(0.0, 2.0 * math.pi)) for key in template.angles}
                ),
            )
            self.assert_agrees(game, random_quantum_strategy(rng, game))

    def test_deterministic_strategies(self):
        rng = np.random.default_rng(23)
        for game in [games.chsh_game(), games.star_game(3), games.chain_game()] + [
            random_game(rng) for _ in range(20)
        ]:
            signs = {
                (i, x, v): int(rng.choice((1, -1)))
                for i in game.players
                for x in (0, 1)
                for v in game.owned(i, x)
            }
            self.assert_agrees(game, deterministic_as_quantum(game, DeterministicStrategy(signs)))


class TestOneAngleIdentity:
    @pytest.mark.parametrize("game", [games.chsh_game(), games.star_game(4), games.chain_game()],
                             ids=["chsh", "star4", "chain4"])
    def test_value_is_sinusoid_in_each_angle(self, game):
        # The exact coordinate step relies on this: along one angle the value
        # is a*cos(t) + b*sin(t) + c, read off the terms holding that angle.
        rng = np.random.default_rng(12)
        strategy, _ = build_strategy(game)
        base = {key: float(rng.uniform(0.0, 2.0 * math.pi)) for key in strategy.angles}
        # One evaluator serves every angle setting; it must agree with the
        # public exact value at the base angles.
        model = build_pair_model(game)
        validate_strategy(game, strategy, model)
        ev = _Evaluator(game, strategy, model)
        theta = [base[k] for k in ev.slots]
        value = ev.value(theta)
        assert value == exact_quantum_value(game, strategy.with_angles(base))

        # Walk the angles as the ascent does: each slot's sinusoid is read
        # from the cached cosines, then the slot moves and only the
        # correlators holding it are refreshed.
        angles = _Angles(ev, theta)
        for slot in range(len(theta)):
            a, b, c = ev.sinusoid(angles, slot, value)
            for t in rng.uniform(0.0, 2.0 * math.pi, size=4):
                moved = theta[:slot] + [float(t)] + theta[slot + 1:]
                assert ev.value(moved) == pytest.approx(
                    a * math.cos(t) + b * math.sin(t) + c, abs=1e-12
                )
            angles.move(slot, float(rng.uniform(0.0, 2.0 * math.pi)))
            assert angles.corr == ev.cosines(theta)
            assert (angles.cos, angles.sin) == ([math.cos(t) for t in theta], [math.sin(t) for t in theta])
            value = ev.total(angles.corr)


class TestOptimizer:
    def test_chsh_reaches_tsirelson_level(self):
        result = optimize_quantum(games.chsh_game(), OptimizeOptions(restarts=20, seed=1))
        assert result.value >= 0.853553 - 1e-3
        assert result.value <= 1.0 + 1e-12
        assert result.restarts_used == 20

    def test_returned_strategy_reproduces_value(self):
        result = optimize_quantum(games.chsh_game(), OptimizeOptions(restarts=5, seed=2))
        assert exact_quantum_value(games.chsh_game(), result.strategy) == pytest.approx(
            result.value, abs=1e-12
        )

    def test_seed_determinism(self):
        a = optimize_quantum(games.chsh_game(), OptimizeOptions(restarts=6, seed=3))
        b = optimize_quantum(games.chsh_game(), OptimizeOptions(restarts=6, seed=3))
        assert a.value == b.value
        assert a.strategy.angles == b.strategy.angles

    def test_shared_game_stays_classical(self):
        result = optimize_quantum(
            games.shared_game(3), OptimizeOptions(restarts=5, seed=5, allow_multiway=True)
        )
        assert result.value == pytest.approx(0.625, abs=1e-12)

    def test_shared_four_players_no_gap(self):
        g = games.shared_game(4)
        classical, _ = classical_value(g)
        result = optimize_quantum(g, OptimizeOptions(restarts=20, seed=5, allow_multiway=True))
        assert result.value <= classical + 1e-3

    def test_star_oracle_grid(self):
        for n1 in (2, 3):
            for p in (0.3, 0.5, 0.7):
                closed = closed_form_star_quantum(ClosedFormParams(p=p, n1=n1))
                result = optimize_quantum(
                    games.star_game(n1, p=p), OptimizeOptions(restarts=20, seed=2)
                )
                assert abs(result.value - closed) <= 1e-9, (n1, p)
                assert 0.0 <= result.value <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "game",
        [games.star_game(3, 0.2), games.star_game(3, 0.8), games.star_game(4, 0.8), games.chain_game(0.8)],
        ids=["star3-0.2", "star3-0.8", "star4-0.8", "chain4-0.8"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_classical_prior_not_below_classical(self, game, seed):
        # A deterministic strategy is a quantum strategy, so the lower bound
        # must reach omega_c where the quantum gain is small.
        result = optimize_quantum(game, OptimizeOptions(restarts=1, seed=seed))
        assert result.value >= classical_value(game)[0] - 1e-12

    @pytest.mark.parametrize(
        "options",
        [
            OptimizeOptions(restarts=0),
            OptimizeOptions(restarts=-3),
            OptimizeOptions(tolerance=-1e-9),
            OptimizeOptions(tolerance=math.nan),
            OptimizeOptions(tolerance=math.inf),
        ],
        ids=["restarts-0", "restarts-neg", "tol-neg", "tol-nan", "tol-inf"],
    )
    def test_rejects_bad_options(self, options):
        with pytest.raises(GraphGameError):
            optimize_quantum(games.chsh_game(), options)
        with pytest.raises(GraphGameError):
            target_quantum_probe(games.gyni_game(), options)

    def test_chain_gap_is_real(self):
        g = games.chain_game()
        classical, _ = classical_value(g)
        result = optimize_quantum(g, OptimizeOptions(restarts=10, seed=1))
        assert result.value > classical + 0.05


class TestClosedFormQuantum:
    def test_examples(self):
        assert closed_form_star_quantum(ClosedFormParams(p=0.5, n1=2)) == pytest.approx(
            CHSH_QUANTUM, abs=1e-9
        )
        assert closed_form_star_quantum(ClosedFormParams(p=0.5, n1=3)) == pytest.approx(
            0.7285533905932737, abs=1e-9
        )
        assert closed_form_star_quantum(ClosedFormParams(p=1.0, n1=2)) == pytest.approx(1.0, abs=1e-12)

    def test_never_below_classical(self):
        for n1 in (2, 3, 4):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                quantum = closed_form_star_quantum(ClosedFormParams(p=p, n1=n1))
                classical = closed_form_star_classical(ClosedFormParams(p=p, n1=n1))
                assert quantum >= classical - 1e-12

    def test_advantage_flag_agrees_with_chsh_gap(self):
        assert unbalanced_chsh_has_advantage(0.25, 0.25, 0.25, 0.25)
        gap = closed_form_star_quantum(ClosedFormParams(p=0.5, n1=2)) - closed_form_star_classical(
            ClosedFormParams(p=0.5, n1=2)
        )
        assert gap > 0.1


class TestAdvantageCondition:
    def test_uniform(self):
        assert unbalanced_chsh_has_advantage(0.25, 0.25, 0.25, 0.25) is True

    def test_skewed_counterexample(self):
        assert unbalanced_chsh_has_advantage(0.489, 0.01, 0.5, 0.001) is False

    def test_first_branch_positive(self):
        assert unbalanced_chsh_has_advantage(0.4, 0.1, 0.4, 0.1) is True

    def test_second_branch_both_ways(self):
        assert unbalanced_chsh_has_advantage(0.3, 0.2, 0.25, 0.25) is True
        assert unbalanced_chsh_has_advantage(0.1, 0.001, 0.4495, 0.4495) is False

    def test_zero_entry_rejected(self):
        with pytest.raises(GraphGameError):
            unbalanced_chsh_has_advantage(0.5, 0.5, 0.0, 0.0)


class TestTrigInequality:
    def test_equality_at_equal_angles(self):
        t = math.pi / 4
        assert trig_power_mean_holds([t, t])
        # equality case: geometric mean equals the function of the mean
        assert math.sin(t) == pytest.approx((math.sin(t) * math.sin(t)) ** 0.5, abs=1e-12)

    def test_degenerate_endpoints(self):
        assert trig_power_mean_holds([0.0, math.pi / 2])

    def test_random_samples(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s = int(rng.integers(2, 7))
            angles = rng.uniform(0.0, math.pi / 2, size=s)
            assert trig_power_mean_holds(list(angles))

    def test_range_checked(self):
        with pytest.raises(GraphGameError):
            trig_power_mean_holds([0.1, 2.0])
        with pytest.raises(GraphGameError):
            trig_power_mean_holds([0.1])


class TestTargetProbe:
    def test_gyni_probe_matches_classical(self):
        assert target_quantum_probe(games.gyni_game()) == pytest.approx(0.25, abs=1e-12)

    def test_probe_with_shared_pair_stays_below_bound(self):
        # Two players share one pair vertex and must each guess the other's
        # input: injective targets, so no strategy may beat 1/2.
        from graphgame import (
            AssignmentMap,
            Graph,
            GraphicGame,
            IIDDistribution,
            TargetFunction,
            TargetPayoff,
        )

        tables = {
            1: {"00": 0, "01": 1, "10": 0, "11": 1},
            2: {"00": 0, "01": 0, "10": 1, "11": 1},
        }
        g = GraphicGame(
            graph=Graph(["v1"]),
            n=2,
            m=1,
            assignments=AssignmentMap(
                {(1, 0): ["v1"], (1, 1): ["v1"], (2, 0): ["v1"], (2, 1): ["v1"]}
            ),
            distribution=IIDDistribution(0.5),
            payoff=TargetPayoff(TargetFunction(tables)),
        )
        probe = target_quantum_probe(g, OptimizeOptions(restarts=4, seed=6))
        assert 0.5 - 1e-9 <= probe <= 0.5 + 1e-3

    # Probe values at restarts=2 and the seed of the game, from the reference
    # implementation that walked every outcome tuple in Python.  The games
    # cover 1-3 pairs, iid and joint priors, and players that hold no pair.
    PINNED = {
        0: 0.4902809192385902,
        1: 0.6926792971191198,
        2: 0.39284510711924814,
        4: 0.40292017504533045,
        5: 0.6037772096584993,
        6: 0.5882964651534219,
        8: 0.28057015494760007,
        9: 0.6983728621827553,
        10: 0.5506610207777366,
        14: 0.8544997430146207,
        18: 0.49373168265467327,
        24: 1.0,
        28: 0.5187495131860843,
        38: 0.5092486976115197,
    }

    # The same games under a uniform iid prior, where best responses tie;
    # ties go to the lowest target image, and the other way these differ.
    PINNED_UNIFORM = {18: 0.5, 27: 0.7500000000000002, 28: 0.3750000000000005, 45: 0.3750000000000002}

    @staticmethod
    def _random_probe(seed, uniform=False):
        game = random_target_game(np.random.default_rng(seed))
        if uniform:
            game = dataclasses.replace(game, distribution=IIDDistribution(0.5))
        return game, target_quantum_probe(game, OptimizeOptions(restarts=2, seed=seed))

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_random_games_match_pinned_values(self, seed):
        game, probe = self._random_probe(seed)
        assert build_pair_model(game, allow_multiway=True).pairs
        assert probe == pytest.approx(self.PINNED[seed], abs=1e-12)

    @pytest.mark.parametrize("seed", sorted(PINNED_UNIFORM))
    def test_ties_match_pinned_values(self, seed):
        _, probe = self._random_probe(seed, uniform=True)
        assert probe == pytest.approx(self.PINNED_UNIFORM[seed], abs=1e-12)

    def test_random_games_stay_between_classical_bounds(self):
        # The starting tables win on the best complementary pair of inputs and
        # no step lowers the value; no outcome-driven strategy found on these
        # games beats the classical optimum.
        for seed in range(40):
            game, probe = self._random_probe(seed)
            low = gyni_classical_bound(game.distribution, game.n)
            assert low - 1e-12 <= probe <= target_classical_value(game) + 1e-12

    @pytest.mark.parametrize("uniform", [False, True], ids=["own-prior", "uniform"])
    def test_matches_exact_response_search(self, uniform):
        # The uniform prior makes best responses tie exactly; the oracle's
        # fractions break each tie to the lowest image, and so must the probe.
        checked = 0
        for seed in range(150):
            game = random_target_game(np.random.default_rng(seed))
            if not build_pair_model(game, allow_multiway=True).pairs:
                continue
            if uniform:
                game = dataclasses.replace(game, distribution=IIDDistribution(0.5))
            assert target_quantum_probe(game) == pytest.approx(response_search_value(game), abs=1e-12), seed
            checked += 1
        assert checked > 100

    def test_many_pairs_game_is_fast(self):
        game = many_pairs_target_game()
        assert len(build_pair_model(game, allow_multiway=True).pairs) == 16
        t0 = time.perf_counter()
        probe = target_quantum_probe(game)
        assert time.perf_counter() - t0 < 1.0
        assert probe == pytest.approx(response_search_value(game), abs=1e-12)
        assert probe == pytest.approx(0.784, abs=1e-12)
        assert probe > gyni_classical_bound(game.distribution, game.n) + 0.1
