"""Referee-players round simulator on a counter-based random stream.

Every round owns a fixed block of a Philox stream keyed by the seed (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  A round
takes ``K`` uniform draws, in this order: one per player for an iid prior
(one in all for a joint prior), then one per entangled pair in vertex
order.  Round ``r`` reads them from counter ``r * B``, where the
``B = ceil(K / 4)`` counter blocks hold four doubles each.  So any round can
be regenerated on its own, a session's result does not depend on how its
rounds are batched, a rerun is bit-identical, and a session of N rounds is
a prefix of one of 2N rounds.

Every strategy plays through one path: a deterministic strategy is an EPR
strategy that measures nothing, so it becomes answer slices with no pairs
to draw.  ``run_session`` plays rounds in chunks of at most ``_CHUNK`` as
array operations:

* inputs by inverse CDF;
* each pair's outcome index as the number of cumulative thresholds of its
  4-entry outcome table that lie at or below its draw;
* the outcome bits packed into uint64 words;
* the verdict as parities of those words, one per referee check
  (``model.referee_checks``), compiled with the players' answer slices
  into ``(mask, parity)`` rows for each input that occurs.

``replay_round`` plays one round through the readable scalar path and
returns its full record.  Both paths read the same draws and compare them
with the same float sums, so they agree round for round.

Player isolation is structural: a replayed round's answers come from a
module-level function that receives only the player's own strategy slice,
own input bit and own measured outcomes, and a compiled row reads each
player's answers from that player's own slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, product
from typing import Mapping, Sequence, Union

import numpy as np

from .classical import DeterministicStrategy
from .model import (
    ConsistencyPayoff,
    GraphGameError,
    GraphicGame,
    IIDDistribution,
    OutputAssignment,
    bits_key,
    referee_checks,
    weighted_inputs,
)
from .quantum import QuantumStrategy, build_pair_model, pair_outcome_distribution, validate_strategy

Strategy = Union[DeterministicStrategy, QuantumStrategy]

_CHUNK = 4096  # rounds per array pass of run_session
_WORD = 2**64 - 1


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
    width: int  # doubles a round owns: four per counter block, ceil(K / 4) blocks


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
    joint, input_draws = (), game.n
    if not isinstance(game.distribution, IIDDistribution):
        joint = tuple((x, w) for x, w in weighted_inputs(game.distribution, game.n) if w > 0.0)
        input_draws = 1
    width = 4 * -(-(input_draws + len(pairs)) // 4)
    return _Session(
        game, slices, angles, pairs, tuple(x for x, _ in joint), tuple(w for _, w in joint), width
    )


def _draw(u: float, probs: Sequence[float]) -> int:
    """Inverse-CDF index of ``u``; the last one if rounding leaves ``u`` above the sum."""
    acc = 0.0
    for idx, prob in enumerate(probs):
        acc += prob
        if u < acc:
            return idx
    return len(probs) - 1


def _stream(sess: _Session, seed: int, first_round: int) -> np.random.Generator:
    """The draws from round ``first_round`` on, ``sess.width`` doubles per round."""
    counter = first_round * (sess.width // 4)
    return np.random.Generator(np.random.Philox(key=seed & (2**63 - 1), counter=[counter, 0, 0, 0]))


def _play(sess: _Session, u: Sequence[float]) -> RoundRecord:
    """One round from its draws ``u``: the input draws first, then one per pair."""
    game = sess.game
    if isinstance(game.distribution, IIDDistribution):
        p = game.distribution.p
        x = tuple(0 if ui < p else 1 for ui in u[: game.n])
        pair_draws = u[game.n :]
    else:
        x = sess.joint_inputs[_draw(u[0], sess.joint_probs)]
        pair_draws = u[1:]

    outcomes = []
    own_outcomes: dict[int, dict[str, int]] = {i: {} for i in game.players}
    for (v, a, b), ui in zip(sess.pairs, pair_draws):
        ta = sess.angles.get((a, v, x[a - 1]))
        tb = sess.angles.get((b, v, x[b - 1]))
        drawn = _draw(ui, pair_outcome_distribution(ta, tb))
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


def _pack(fields: np.ndarray, width: int) -> np.ndarray:
    """Each row's ``width``-bit fields as uint64 words, field k at bit ``width * k`` of the row."""
    rows, count = fields.shape
    if count == 0:
        return np.zeros((rows, 1), np.uint64)
    per = 64 // width
    shifts = (np.arange(count) % per * width).astype(np.uint64)
    return np.bitwise_or.reduceat(fields.astype(np.uint64) << shifts, np.arange(0, count, per), axis=1)


def _pair_thresholds(sess: _Session) -> np.ndarray:
    """Per pair and ``2 * x_a + x_b``: the cumulative sums ``_draw`` compares a draw with."""
    sums = []
    for v, a, b in sess.pairs:
        for xa, xb in product((0, 1), repeat=2):
            probs = pair_outcome_distribution(sess.angles.get((a, v, xa)), sess.angles.get((b, v, xb)))
            sums.append(list(accumulate(probs))[:3])
    return np.array(sums).reshape(len(sess.pairs), 4, 3)


def _inputs(sess: _Session, u: np.ndarray) -> np.ndarray:
    """Each row's input bits, drawn from the row's first draws as ``_play`` does."""
    game = sess.game
    if isinstance(game.distribution, IIDDistribution):
        return (u[:, : game.n] >= game.distribution.p).astype(np.uint8)
    cdf = np.array(list(accumulate(sess.joint_probs)))
    index = np.minimum(np.searchsorted(cdf, u[:, 0], side="right"), len(cdf) - 1)
    return np.array(sess.joint_inputs, dtype=np.uint8)[index]


def _distinct(xs: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The input vectors among the rows of ``xs``, and each row's index into them."""
    words = _pack(xs, 1)
    if words.shape[1] == 1:  # up to 64 players: one word a row, and a far faster np.unique
        _, first, inverse = np.unique(words[:, 0], return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(words, axis=0, return_index=True, return_inverse=True)
    return [tuple(x) for x in xs[first].tolist()], inverse.reshape(-1)


def _compile(sess: _Session, x: tuple[int, ...], bit: Mapping[tuple[int, str], int], words: int):
    """The referee's checks at ``x`` as outcome-bit masks (``words`` uint64 each) and parities.

    A check holds when the outcome bits under its mask have the parity: each
    answer is its sign times its refs' outcomes, so the sign's minus moves
    into the parity and each ref toggles its outcome bit ``bit[(player, ref)]``.
    """
    masks, parities = [], []
    for sides, parity in referee_checks(sess.game, x):
        mask = 0
        for i, verts in sides:
            answers = sess.slices[(i, x[i - 1])]
            for v in verts:
                sign, refs = answers[v]
                parity ^= sign < 0
                for r in refs:
                    mask ^= 1 << bit[(i, r)]
        masks.append([(mask >> (64 * w)) & _WORD for w in range(words)])
        parities.append(parity)
    return np.array(masks, dtype=np.uint64).reshape(-1, words), np.array(parities, dtype=np.uint8)


def _verdicts(outcome_bits: np.ndarray, inverse: np.ndarray, checks) -> np.ndarray:
    """Whether each row passes every check of its input (``checks[inverse[row]]``)."""
    count = max(len(parities) for _, parities in checks)
    mask = np.zeros((len(checks), count, outcome_bits.shape[1]), np.uint64)
    parity = np.zeros((len(checks), count), np.uint8)
    for j, (masks, parities) in enumerate(checks):  # absent checks: empty mask, even parity
        mask[j, : len(parities)] = masks
        parity[j, : len(parities)] = parities
    odd = np.bitwise_count(outcome_bits[:, None, :] & mask[inverse]).sum(axis=2) & 1
    return (odd == parity[inverse]).all(axis=1)


def run_session(game: GraphicGame, config: SessionConfig) -> SessionStats:
    """Play ``config.rounds`` rounds; fully reproducible from ``config.seed``.

    Round ``r`` is the round ``replay_round(game, config, r)`` regenerates.
    """
    sess = _prepare(game, config)
    npairs = len(sess.pairs)
    first_pair_draw = game.n if isinstance(game.distribution, IIDDistribution) else 1
    words = max(1, -(-npairs // 32))
    # Pair k's outcome index, 2 * [side a is -1] + [side b is -1], fills bits 2k and 2k + 1.
    bit = {}
    for k, (v, a, b) in enumerate(sess.pairs):
        bit[(a, v)], bit[(b, v)] = 2 * k + 1, 2 * k
    owners = np.array([(a - 1, b - 1) for _, a, b in sess.pairs], dtype=np.intp).reshape(-1, 2)
    thresholds = _pair_thresholds(sess)

    stream = _stream(sess, config.seed, 0)
    compiled: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
    tally: dict[tuple[int, ...], list[int]] = {}
    for start in range(0, config.rounds, _CHUNK):
        u = stream.random((min(_CHUNK, config.rounds - start), sess.width))
        xs = _inputs(sess, u)
        draws = u[:, first_pair_draw : first_pair_draw + npairs]
        table = 2 * xs[:, owners[:, 0]] + xs[:, owners[:, 1]]
        drawn = (thresholds[np.arange(npairs), table] <= draws[:, :, None]).sum(axis=2)
        inputs, inverse = _distinct(xs)
        for x in inputs:
            if x not in compiled:
                compiled[x] = _compile(sess, x, bit, words)
        won = _verdicts(_pack(drawn, 2), inverse, [compiled[x] for x in inputs])
        plays = np.bincount(inverse, minlength=len(inputs)).tolist()
        wins = np.bincount(inverse[won], minlength=len(inputs)).tolist()
        for x, k, w in zip(inputs, plays, wins):
            cell = tally.setdefault(x, [0, 0])
            cell[0] += k
            cell[1] += w

    total = sum(w for _, w in tally.values())
    estimate = total / config.rounds
    stderr = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / config.rounds)
    return SessionStats(
        wins=total,
        rounds=config.rounds,
        estimate=estimate,
        stderr=stderr,
        per_input_counts=dict(sorted((bits_key(x), (k, w)) for x, (k, w) in tally.items())),
    )


def replay_round(game: GraphicGame, config: SessionConfig, round_index: int) -> RoundRecord:
    """Regenerate one round exactly: inputs, raw pair outcomes, answers, verdict."""
    if not (0 <= round_index < config.rounds):
        raise GraphGameError(f"round index {round_index} outside 0..{config.rounds - 1}")
    sess = _prepare(game, config)
    return _play(sess, _stream(sess, config.seed, round_index).random(sess.width).tolist())
