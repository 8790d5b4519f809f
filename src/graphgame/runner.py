"""Referee-players round simulator with reproducible randomness.

Each round draws its own random substream from (seed, round index), so a
session can be replayed round by round, split across workers in any batch
arrangement, or re-run bit-identically.  Every strategy plays through one
path: a deterministic strategy is an EPR strategy that measures nothing,
so it becomes answer slices with no pairs to draw.  Per round the referee
samples the input vector, nature samples the entangled-pair outcomes (pairs
in vertex order, one inverse-CDF draw each from the 4-entry outcome table),
every player answers in isolation, and the referee's parity checks
(``model.referee_checks``) score the round.

Player isolation is structural: answers are produced by a module-level
function that receives only the player's own strategy slice, own input bit
and own measured outcomes.  There is no code path through which one
player's answer can see another player's input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .classical import DeterministicStrategy
from .model import (
    ConsistencyPayoff,
    GraphGameError,
    GraphicGame,
    IIDDistribution,
    OutputAssignment,
    _substream,
    bits_key,
    referee_checks,
    weighted_inputs,
)
from .quantum import QuantumStrategy, build_pair_model, pair_outcome_distribution, validate_strategy

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


def answer_quantum(
    wiring: Mapping[str, tuple[int, tuple[str, ...]]],
    own_input: int,
    own_outcomes: Mapping[str, int],
) -> dict[str, int]:
    """One player's answers from its slice ``{vertex: (sign, refs)}`` and its own
    measured outcomes.  A deterministic strategy's slices carry no refs."""
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
    slices: Mapping[tuple[int, int], Mapping[str, tuple[int, tuple[str, ...]]]]
    angles: Mapping[tuple[int, str, int], float]
    pairs: tuple[tuple[str, int, int], ...]  # empty for a deterministic strategy
    joint_inputs: tuple[tuple[int, ...], ...]  # inverse-CDF support of a joint prior
    joint_probs: tuple[float, ...]


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
        answers = ((key, (s, ())) for key, s in strategy.signs.items())
        angles, pairs = {}, ()
    elif isinstance(strategy, QuantumStrategy):
        model = build_pair_model(game, allow_multiway=True)
        try:
            validate_strategy(game, strategy, model)
        except GraphGameError as exc:
            raise StrategyMismatchError(str(exc)) from exc
        answers = ((key, (e.sign, e.refs)) for key, e in strategy.wiring.items())
        angles, pairs = strategy.angles, model.pairs
    else:
        raise StrategyMismatchError(f"unsupported strategy type {type(strategy).__name__}")

    slices: dict[tuple[int, int], dict] = {(i, b): {} for i in game.players for b in (0, 1)}
    for (i, b, v), answer in answers:
        slices[(i, b)][v] = answer
    joint = ()
    if not isinstance(game.distribution, IIDDistribution):
        joint = tuple((x, w) for x, w in weighted_inputs(game.distribution, game.n) if w > 0.0)
    return _Session(game, slices, angles, pairs, tuple(x for x, _ in joint), tuple(w for _, w in joint))


def _draw(u: float, probs: Sequence[float]) -> int:
    """Inverse-CDF index of ``u``; the last one if rounding leaves ``u`` above the sum."""
    acc = 0.0
    for idx, prob in enumerate(probs):
        acc += prob
        if u < acc:
            return idx
    return len(probs) - 1


def _play(sess: _Session, rng: np.random.Generator) -> RoundRecord:
    game = sess.game
    if isinstance(game.distribution, IIDDistribution):
        p = game.distribution.p
        x = tuple(0 if rng.random() < p else 1 for _ in range(game.n))
    else:
        x = sess.joint_inputs[_draw(rng.random(), sess.joint_probs)]

    outcomes = []
    own_outcomes: dict[int, dict[str, int]] = {i: {} for i in game.players}
    for v, a, b in sess.pairs:
        ta = sess.angles.get((a, v, x[a - 1]))
        tb = sess.angles.get((b, v, x[b - 1]))
        drawn = _draw(rng.random(), pair_outcome_distribution(ta, tb))
        sa = 1 if drawn in (0, 1) else -1
        sb = 1 if drawn in (0, 2) else -1
        outcomes.append((v, sa, sb))
        if ta is not None:
            own_outcomes[a][v] = sa
        if tb is not None:
            own_outcomes[b][v] = sb

    values: dict[tuple[int, str], int] = {}
    for i in game.players:
        for v, s in answer_quantum(sess.slices[(i, x[i - 1])], x[i - 1], own_outcomes[i]).items():
            values[(i, v)] = s

    verdict = 1
    for sides, parity in referee_checks(game, x):
        s = 1
        for i, verts in sides:
            for v in verts:
                s *= values[(i, v)]
        if s != (-1) ** parity:
            verdict = 0
            break
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
