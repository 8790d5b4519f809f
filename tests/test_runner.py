import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from graphgame import (
    ConsistencyPayoff,
    DeterministicStrategy,
    GraphGameError,
    GraphicGame,
    IIDDistribution,
    JointDistribution,
    SessionConfig,
    build_pair_model,
    build_strategy,
    classical_value,
    evaluate_payoff,
    exact_quantum_value,
    optimize_quantum,
    OptimizeOptions,
    replay_round,
    run_session,
    strategy_value,
)
from graphgame.model import bits_key, input_vectors, input_weight
from graphgame.runner import _CHUNK, StrategyMismatchError, answer_quantum
from graphgame import games

from _oracles import random_game, random_joint_prior, random_quantum_strategy


def chsh_quantum_strategy():
    strategy, _ = build_strategy(games.chsh_game())
    return strategy.with_angles(
        {
            (1, "v1", 0): 0.0,
            (1, "v1", 1): math.pi / 2,
            (2, "v1", 0): math.pi / 4,
            (2, "v1", 1): -math.pi / 4,
        }
    )


class TestSessions:
    def test_bit_identical_reruns(self):
        g = games.chsh_game()
        cfg = SessionConfig(rounds=400, seed=10, strategy=classical_value(g)[1])
        assert run_session(g, cfg) == run_session(g, cfg)

    def test_classical_estimate_tracks_exact_value(self):
        g = games.chsh_game()
        value, witness = classical_value(g)
        stats = run_session(g, SessionConfig(rounds=20000, seed=11, strategy=witness))
        assert abs(stats.estimate - value) <= 5 * stats.stderr

    def test_quantum_estimate_tracks_exact_value(self):
        g = games.chsh_game()
        strategy = chsh_quantum_strategy()
        exact = exact_quantum_value(g, strategy)
        stats = run_session(g, SessionConfig(rounds=20000, seed=12, strategy=strategy))
        assert abs(stats.estimate - exact) <= 5 * stats.stderr

    def test_estimates_track_exact_value_across_seeds(self):
        g = games.chsh_game()
        strategy = chsh_quantum_strategy()
        exact = exact_quantum_value(g, strategy)
        misses = 0
        for seed in range(20):
            stats = run_session(g, SessionConfig(rounds=2000, seed=seed, strategy=strategy))
            if abs(stats.estimate - exact) > 5 * stats.stderr:
                misses += 1
        assert misses <= 1

    def test_input_frequencies(self):
        g = games.chsh_game()
        stats = run_session(
            g, SessionConfig(rounds=20000, seed=13, strategy=classical_value(g)[1])
        )
        for key, (plays, _) in stats.per_input_counts.items():
            expected = 20000 * 0.25
            sigma = math.sqrt(20000 * 0.25 * 0.75)
            assert abs(plays - expected) <= 5 * sigma, key

    def test_stats_shape(self):
        g = games.trivial_game()
        stats = run_session(g, SessionConfig(rounds=50, seed=1, strategy=classical_value(g)[1]))
        assert stats.wins == 50
        assert stats.estimate == 1.0
        assert stats.stderr == 0.0
        assert sum(plays for plays, _ in stats.per_input_counts.values()) == 50

    def test_zero_rounds_rejected(self):
        g = games.chsh_game()
        with pytest.raises(GraphGameError):
            run_session(g, SessionConfig(rounds=0, seed=1, strategy=classical_value(g)[1]))

    def test_strategy_game_mismatch(self):
        star_witness = classical_value(games.star_game(3))[1]
        with pytest.raises(StrategyMismatchError):
            run_session(games.chsh_game(), SessionConfig(rounds=5, seed=1, strategy=star_witness))

    def test_target_games_not_simulated(self):
        with pytest.raises(StrategyMismatchError):
            run_session(
                games.gyni_game(),
                SessionConfig(rounds=5, seed=1, strategy=classical_value(games.chsh_game())[1]),
            )


def with_prior(game, distribution):
    return GraphicGame(
        graph=game.graph,
        n=game.n,
        m=game.m,
        assignments=game.assignments,
        distribution=distribution,
        payoff=game.payoff,
    )


def replayed_counts(game, config):
    """Per-input (plays, wins) summed over ``replay_round`` records."""
    counts = {}
    for r in range(config.rounds):
        rec = replay_round(game, config, r)
        cell = counts.setdefault(bits_key(rec.x), [0, 0])
        cell[0] += 1
        cell[1] += rec.verdict
    return {k: tuple(v) for k, v in sorted(counts.items())}


def assert_session_matches_replays(game, config):
    stats = run_session(game, config)
    want = replayed_counts(game, config)
    assert stats.per_input_counts == want
    assert stats.wins == sum(w for _, w in want.values())
    assert stats.estimate == stats.wins / config.rounds


CONSISTENCY_FIXTURES = sorted(
    name for name, build in games.FIXTURES.items() if isinstance(build().payoff, ConsistencyPayoff)
)


class TestChunkedSessions:
    """``run_session`` plays chunks of rounds as array operations; its counts
    must equal the scalar replays of the same rounds exactly."""

    def test_counts_equal_replays(self):
        rng = np.random.default_rng(41)
        cases = [games.FIXTURES[name]() for name in CONSISTENCY_FIXTURES]
        for k in range(30):
            g = random_game(rng)
            if k % 3 == 1:
                g = with_prior(g, IIDDistribution(float(rng.choice([0.0, 1.0, rng.uniform()]))))
            elif k % 3 == 2:
                g = with_prior(g, random_joint_prior(rng, g.n))
            cases.append(g)
        for k, g in enumerate(cases):
            for strategy in (classical_value(g)[1], random_quantum_strategy(rng, g)):
                assert_session_matches_replays(g, SessionConfig(rounds=120, seed=500 + k, strategy=strategy))

    def test_joint_prior_with_zero_entry(self):
        rng = np.random.default_rng(42)
        g = with_prior(games.star_game(3), random_joint_prior(rng, 3))
        zero = next(key for key, p in g.distribution.table.items() if p == 0.0)
        for strategy in (classical_value(g)[1], random_quantum_strategy(rng, g)):
            config = SessionConfig(rounds=600, seed=43, strategy=strategy)
            assert_session_matches_replays(g, config)
            assert zero not in run_session(g, config).per_input_counts

    @pytest.mark.parametrize("rounds", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_chunk_seams(self, rounds):
        g = games.chsh_game()
        config = SessionConfig(rounds=rounds, seed=44, strategy=chsh_quantum_strategy())
        assert_session_matches_replays(g, config)

    def test_wide_game(self):
        # 66 players and 65 pairs: inputs and outcome bits each span several words.
        rng = np.random.default_rng(45)
        g = games.star_game(66, 0.3)
        strategy, _ = build_strategy(g, allow_multiway=True)
        strategy = strategy.with_angles({k: float(rng.uniform(0.0, 2.0 * math.pi)) for k in strategy.angles})
        assert_session_matches_replays(g, SessionConfig(rounds=40, seed=46, strategy=strategy))
        assert "inputs" not in vars(g)  # a session never enumerates the 2^66 inputs

    def test_prefix_property(self):
        g = games.star_game(4, 0.3)
        strategy, _ = build_strategy(g)
        strategy = strategy.with_angles({k: 0.3 * j for j, k in enumerate(sorted(strategy.angles))})
        short = SessionConfig(rounds=500, seed=47, strategy=strategy)
        long = SessionConfig(rounds=1000, seed=47, strategy=strategy)
        for r in (0, 1, 255, 256, 499):
            assert replay_round(g, short, r) == replay_round(g, long, r)
        first = run_session(g, short).per_input_counts
        both = run_session(g, long).per_input_counts
        assert all(first[key][0] <= both[key][0] for key in first)

    def test_negative_seed(self):
        g = games.chsh_game()
        config = SessionConfig(rounds=300, seed=-5, strategy=chsh_quantum_strategy())
        assert_session_matches_replays(g, config)
        masked = SessionConfig(rounds=300, seed=-5 & (2**63 - 1), strategy=config.strategy)
        assert run_session(g, config) == run_session(g, masked)
        assert replay_round(g, config, 7) == replay_round(g, masked, 7)


class TestStatistics:
    @pytest.mark.parametrize("prior", ["iid", "joint"])
    def test_input_frequencies_chi_square(self, prior):
        g = games.star_game(4, 0.3)
        if prior == "joint":
            g = with_prior(g, random_joint_prior(np.random.default_rng(51), g.n))
        rounds = 40000
        stats = run_session(g, SessionConfig(rounds=rounds, seed=52, strategy=classical_value(g)[1]))
        plays = {key: k for key, (k, _) in stats.per_input_counts.items()}
        cells = [(plays.get(bits_key(x), 0), input_weight(g.distribution, x)) for x in input_vectors(g.n)]
        assert all(plays == 0 for plays, p in cells if p == 0.0)
        support = [(plays, p) for plays, p in cells if p > 0.0]
        chi2 = sum((plays - rounds * p) ** 2 / (rounds * p) for plays, p in support)
        dof = len(support) - 1
        assert chi2 <= dof + 5 * math.sqrt(2 * dof)

    @pytest.mark.parametrize("name", CONSISTENCY_FIXTURES)
    def test_estimates_within_5_sigma(self, name):
        game = games.FIXTURES[name]()
        quantum, _ = build_strategy(game, allow_multiway=True)
        quantum = quantum.with_angles({k: 0.4 + 0.7 * j for j, k in enumerate(sorted(quantum.angles))})
        witness = classical_value(game)[1]
        rounds = 20000
        plays = (
            (quantum, exact_quantum_value(game, quantum, allow_multiway=True)),
            (witness, strategy_value(game, witness)),
        )
        for seed, (strategy, exact) in enumerate(plays):
            stats = run_session(game, SessionConfig(rounds=rounds, seed=60 + seed, strategy=strategy))
            assert abs(stats.estimate - exact) <= 5 * math.sqrt(exact * (1 - exact) / rounds) + 1e-12


class TestReferenceAgreement:
    """The simulator scores rounds with the referee's parity checks; every
    replayed verdict must match the reference referee on the same answers."""

    def test_replayed_rounds_match_reference_referee(self):
        rng = np.random.default_rng(31)
        cases = [games.FIXTURES[name]() for name in CONSISTENCY_FIXTURES]
        cases += [random_game(rng) for _ in range(30)]
        plays = [(g, s) for g in cases for s in (classical_value(g)[1], random_quantum_strategy(rng, g))]
        for k, (g, strategy) in enumerate(plays):
            owners = {v: (a, b) for v, a, b in build_pair_model(g, allow_multiway=True).pairs}
            cfg = SessionConfig(rounds=50, seed=100 + k, strategy=strategy)
            for r in range(cfg.rounds):
                rec = replay_round(g, cfg, r)
                owned = {(i, v) for i in g.players for v in g.owned(i, rec.x[i - 1])}
                assert set(rec.assignment.values) == owned
                assert rec.verdict == evaluate_payoff(g, rec.x, rec.assignment).verdict
                if isinstance(strategy, DeterministicStrategy):
                    assert rec.outcomes == ()
                    want = {(i, v): strategy.signs[(i, rec.x[i - 1], v)] for i, v in owned}
                else:
                    half = {}
                    for v, sa, sb in rec.outcomes:
                        half[(owners[v][0], v)], half[(owners[v][1], v)] = sa, sb
                    want = {}
                    for i, v in owned:
                        expr = strategy.wiring[(i, rec.x[i - 1], v)]
                        want[(i, v)] = expr.sign * math.prod(half[(i, ref)] for ref in expr.refs)
                assert rec.assignment.values == want


class TestJointPrior:
    def test_session_follows_the_joint_table(self):
        star3 = games.star_game(3)
        table = {"000": 0.2, "001": 0.1, "010": 0.15, "011": 0.1, "100": 0.1, "101": 0.15, "110": 0.2, "111": 0.0}
        g = GraphicGame(
            graph=star3.graph,
            n=star3.n,
            m=star3.m,
            assignments=star3.assignments,
            distribution=JointDistribution(table),
            payoff=star3.payoff,
        )
        quantum = optimize_quantum(g, OptimizeOptions(restarts=1, seed=3)).strategy
        witness = classical_value(g)[1]
        rounds = 4000
        for strategy, exact in (
            (quantum, exact_quantum_value(g, quantum)),
            (witness, strategy_value(g, witness)),
        ):
            stats = run_session(g, SessionConfig(rounds=rounds, seed=17, strategy=strategy))
            assert abs(stats.estimate - exact) <= 5 * math.sqrt(exact * (1 - exact) / rounds)
            assert "111" not in stats.per_input_counts
            for key, (plays, _) in stats.per_input_counts.items():
                p = table[key]
                assert abs(plays - rounds * p) <= 5 * math.sqrt(rounds * p * (1 - p)), key


class TestReplay:
    def test_replay_is_deterministic(self):
        g = games.chsh_game()
        cfg = SessionConfig(rounds=100, seed=42, strategy=chsh_quantum_strategy())
        first = replay_round(g, cfg, 17)
        second = replay_round(g, cfg, 17)
        assert first == second

    def test_replay_matches_session_accounting(self):
        g = games.chsh_game()
        cfg = SessionConfig(rounds=300, seed=14, strategy=chsh_quantum_strategy())
        stats = run_session(g, cfg)
        wins = sum(replay_round(g, cfg, r).verdict for r in range(cfg.rounds))
        assert wins == stats.wins

    def test_deterministic_rounds_have_no_outcomes(self):
        g = games.chsh_game()
        cfg = SessionConfig(rounds=10, seed=15, strategy=classical_value(g)[1])
        assert replay_round(g, cfg, 3).outcomes == ()

    @pytest.mark.parametrize(
        "name",
        [name for name, build in games.FIXTURES.items() if isinstance(build().payoff, ConsistencyPayoff)],
    )
    def test_records_list_answers_in_sorted_order(self, name):
        # Owned vertices are frozensets, whose iteration order changes with
        # the hash seed; a record must not.
        g = games.FIXTURES[name]()
        quantum = optimize_quantum(g, OptimizeOptions(restarts=1, allow_multiway=True)).strategy
        for strategy in (classical_value(g)[1], quantum):
            cfg = SessionConfig(rounds=8, seed=3, strategy=strategy)
            for r in range(cfg.rounds):
                values = replay_round(g, cfg, r).assignment.values
                assert list(values) == sorted(values)

    def test_records_print_alike_under_any_hash_seed(self):
        script = (
            "from graphgame import SessionConfig, classical_value, games, replay_round\n"
            "g = games.chain_game()\n"
            "cfg = SessionConfig(rounds=4, seed=3, strategy=classical_value(g)[1])\n"
            "print([replay_round(g, cfg, r) for r in range(4)])\n"
        )
        printed = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(sys.path)},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for hash_seed in ("1", "2")
        }
        assert len(printed) == 1

    def test_index_bounds(self):
        g = games.chsh_game()
        cfg = SessionConfig(rounds=10, seed=16, strategy=classical_value(g)[1])
        with pytest.raises(GraphGameError):
            replay_round(g, cfg, 10)


class TestIsolation:
    def test_answer_functions_receive_only_local_data(self):
        q_params = set(inspect.signature(answer_quantum).parameters)
        assert q_params == {"wiring", "own_input", "own_outcomes"}

    def test_wiring_slice_cannot_reach_other_inputs(self):
        # The quantum answer path consumes a per-player wiring slice and the
        # player's own outcomes; feeding it another player's input changes
        # nothing because the slice is pre-selected.
        strategy = chsh_quantum_strategy()
        slice_ = {
            v: (expr.sign, expr.refs)
            for (p, x, v), expr in strategy.wiring.items()
            if p == 2 and x == 0
        }
        a = answer_quantum(slice_, 0, {"v1": -1})
        b = answer_quantum(slice_, 1, {"v1": -1})
        assert a == b == {"v1": -1, "v2": -1}
