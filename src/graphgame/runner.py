"""Referee-players round simulator with reproducible randomness.

Each round draws its own random substream from (seed, round index), so a
session can be replayed round by round, split across workers in any batch
arrangement, or re-run bit-identically.  Per round the referee samples the
input vector, nature samples the entangled-pair outcomes (pairs in vertex
order, one inverse-CDF draw each from the 4-entry outcome table), every
player answers in isolation, and the payoff predicate scores the result.

Player isolation is structural: answers are produced by module-level
functions that receive only the player's own strategy slice, own input bit
and own measured outcomes.  There is no code path through which one
player's answer can see another player's input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .classical import DeterministicStrategy
from .model import (
    ConsistencyPayoff,
    GraphGameError,
    GraphicGame,
    IIDDistribution,
    JointDistribution,
    OutputAssignment,
    _substream,
    bits_key,
    evaluate_payoff,
    weighted_inputs,
)
from .quantum import PairModel, QuantumStrategy, build_pair_model, pair_outcome_distribution, validate_strategy

Strategy = Union[DeterministicStrategy, QuantumStrategy]


class StrategyMismatchError(GraphGameError):
    """The supplied strategy does not fit the game."""


@dataclass(frozen=True)
class SessionConfig:
    rounds: int
    seed: int
    strategy: Strategy


@dataclass(frozen=True)
class SessionStats:
    wins: int
    rounds: int
    estimate: float
    stderr: float
    per_input_counts: Mapping[str, tuple[int, int]]


@dataclass(frozen=True)
class RoundRecord:
    x: tuple[int, ...]
    outcomes: tuple[tuple[str, int, int], ...]  # (vertex, side-a sign, side-b sign)
    assignment: OutputAssignment
    verdict: int


def answer_deterministic(signs: Mapping[str, int], own_input: int) -> dict[str, int]:
    """One player's answers from its own lookup table.  ``signs`` is already
    the slice for ``own_input``."""
    del own_input  # the slice is pre-selected; kept for interface symmetry
    return dict(signs)


def answer_quantum(
    wiring: Mapping[str, tuple[int, tuple[str, ...]]],
    own_input: int,
    own_outcomes: Mapping[str, int],
) -> dict[str, int]:
    """One player's answers from its wiring and its own measured outcomes."""
    del own_input
    out = {}
    for vertex, (sign, refs) in wiring.items():
        s = sign
        for r in refs:
            s *= own_outcomes[r]
        out[vertex] = s
    return out


@dataclass(frozen=True)
class _Session:
    game: GraphicGame
    config: SessionConfig
    model: PairModel | None  # None for deterministic play
    joint_keys: tuple[tuple[tuple[int, ...], float], ...] | None  # inverse CDF support


def _prepare(game: GraphicGame, config: SessionConfig) -> _Session:
    if config.rounds < 1:
        raise GraphGameError(f"rounds must be >= 1, got {config.rounds}")
    if not isinstance(game.payoff, ConsistencyPayoff):
        raise StrategyMismatchError("the simulator plays consistency-mode games only")
    strategy = config.strategy
    if isinstance(strategy, DeterministicStrategy):
        expected = {
            (i, x, v) for i in game.players for x in (0, 1) for v in game.owned(i, x)
        }
        if set(strategy.signs) != expected:
            raise StrategyMismatchError("deterministic signs do not cover the owned vertices")
        if any(s not in (1, -1) for s in strategy.signs.values()):
            raise StrategyMismatchError("deterministic signs must be +1/-1")
        model = None
    elif isinstance(strategy, QuantumStrategy):
        model = build_pair_model(game, allow_multiway=True)
        try:
            validate_strategy(game, strategy, model)
        except GraphGameError as exc:
            raise StrategyMismatchError(str(exc)) from exc
    else:
        raise StrategyMismatchError(f"unsupported strategy type {type(strategy).__name__}")

    joint = None
    if isinstance(game.distribution, JointDistribution):
        joint = tuple((x, w) for x, w in weighted_inputs(game.distribution, game.n) if w > 0.0)
    return _Session(game=game, config=config, model=model, joint_keys=joint)


def _sample_input(sess: _Session, rng: np.random.Generator) -> tuple[int, ...]:
    game = sess.game
    if isinstance(game.distribution, IIDDistribution):
        p = game.distribution.p
        return tuple(0 if rng.random() < p else 1 for _ in range(game.n))
    u = rng.random()
    acc = 0.0
    assert sess.joint_keys is not None
    for x, w in sess.joint_keys:
        acc += w
        if u < acc:
            return x
    return sess.joint_keys[-1][0]


def _play(sess: _Session, rng: np.random.Generator) -> RoundRecord:
    game = sess.game
    strategy = sess.config.strategy
    x = _sample_input(sess, rng)

    outcomes: list[tuple[str, int, int]] = []
    per_player_outcomes: dict[int, dict[str, int]] = {i: {} for i in game.players}
    if isinstance(strategy, QuantumStrategy):
        assert sess.model is not None
        for v, a, b in sess.model.pairs:
            ta = strategy.angles.get((a, v, x[a - 1]))
            tb = strategy.angles.get((b, v, x[b - 1]))
            table = pair_outcome_distribution(ta, tb)
            u = rng.random()
            acc = 0.0
            drawn = 3
            for idx, prob in enumerate(table):
                acc += prob
                if u < acc:
                    drawn = idx
                    break
            sa = 1 if drawn in (0, 1) else -1
            sb = 1 if drawn in (0, 2) else -1
            outcomes.append((v, sa, sb))
            if ta is not None:
                per_player_outcomes[a][v] = sa
            if tb is not None:
                per_player_outcomes[b][v] = sb

    values: dict[tuple[int, str], int] = {}
    for i in game.players:
        own_input = x[i - 1]
        if isinstance(strategy, DeterministicStrategy):
            slice_ = {
                v: strategy.signs[(i, own_input, v)] for v in game.owned(i, own_input)
            }
            answers = answer_deterministic(slice_, own_input)
        else:
            wiring_slice = {
                v: (expr.sign, expr.refs)
                for (p, xx, v), expr in strategy.wiring.items()
                if p == i and xx == own_input
            }
            answers = answer_quantum(wiring_slice, own_input, per_player_outcomes[i])
        for v, s in answers.items():
            values[(i, v)] = s

    verdict = evaluate_payoff(game, x, OutputAssignment(values)).verdict
    return RoundRecord(x=x, outcomes=tuple(outcomes), assignment=OutputAssignment(values), verdict=verdict)


def run_session(game: GraphicGame, config: SessionConfig) -> SessionStats:
    """Play ``config.rounds`` rounds; fully reproducible from ``config.seed``."""
    sess = _prepare(game, config)
    wins = 0
    per_input: dict[str, list[int]] = {}
    for r in range(config.rounds):
        rec = _play(sess, _substream(config.seed, r))
        wins += rec.verdict
        cell = per_input.setdefault(bits_key(rec.x), [0, 0])
        cell[0] += 1
        cell[1] += rec.verdict
    estimate = wins / config.rounds
    stderr = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / config.rounds)
    return SessionStats(
        wins=wins,
        rounds=config.rounds,
        estimate=estimate,
        stderr=stderr,
        per_input_counts={k: (v[0], v[1]) for k, v in sorted(per_input.items())},
    )


def replay_round(game: GraphicGame, config: SessionConfig, round_index: int) -> RoundRecord:
    """Regenerate one round exactly: inputs, raw pair outcomes, answers, verdict."""
    if not (0 <= round_index < config.rounds):
        raise GraphGameError(f"round index {round_index} outside 0..{config.rounds - 1}")
    sess = _prepare(game, config)
    return _play(sess, _substream(config.seed, round_index))
