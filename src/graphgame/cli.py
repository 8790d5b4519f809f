"""Command-line interface.

Commands: validate, classify, value, simulate, gyni.  Each prints a plain
``key: value`` report (see report_schema.txt).  Exit codes:

    0  success (classify reports Unknown softly)
    2  spec fails validation
    3  spec cannot be parsed
    4  a solver budget was exceeded
    5  strategy file missing, malformed or incompatible with the game
    6  command requires the other payoff mode

`main` is the one request pipeline.  It runs, in order:

1. parse the command line (usage errors exit 2 before any report) with the
   process's one parser, built by the first ``main`` call and reused by
   every later one (``parse_args`` leaves it unchanged), then print the
   report's ``command`` and ``spec`` lines;
2. parse the spec (exit 3) and print its ``game_digest``;
3. validate it, refusing an invalid spec with the ``validate`` report lines
   (exit 2);
4. refuse a game of the wrong payoff mode (exit 6); each subcommand names
   its mode and message in its parser defaults (``requires``);
5. run the command body, ``cmd_<name>(args, game, pairs)``, which appends
   its result lines and returns its exit code;
6. turn a ``StrategySpaceError`` or ``PairBudgetError`` into ``status:
   error`` with the space size and budget (exit 4), after whatever lines the
   body had appended.  ``classify`` reports an exhausted budget softly, as
   verdict ``Unknown``.

``value --quantum`` lower-bounds the quantum value by exact coordinate
ascent over the measurement angles: each step reads the sinusoid along one
angle off the compiled correlator polynomial in one pass over the terms
holding that angle and jumps to its maximum, stopping once a sweep gains
less than ``--tolerance``.  These are usage errors (exit 2): ``--restarts``
or ``--rounds`` below 1, a negative ``--budget`` or ``--pair-budget``, and a
negative or non-finite ``--tolerance``.  A budget of 0 is allowed: every
classical search, and every quantum one with a pair, then exceeds it.
The package needs NumPy 2.0 or later.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from . import classification, io
from .classical import (
    DEFAULT_STRATEGY_BUDGET,
    StrategySpaceError,
    classical_value,
    gyni_classical_bound,
    check_injective,
    target_classical_value,
)
from .model import ConsistencyPayoff, GraphGameError, TargetPayoff, validate_game
from .quantum import (
    DEFAULT_PAIR_BUDGET,
    OptimizeOptions,
    PairBudgetError,
    optimize_quantum,
    target_quantum_probe,
)
from .runner import SessionConfig, run_session


def _emit(pairs, code: int) -> int:
    """Print the report and pass on its exit code."""
    sys.stdout.write(io.render_report(pairs))
    return code


def _error(message: str, *extra: tuple[str, str]) -> list[tuple[str, str]]:
    """The closing lines of a refused request."""
    return [("status", "error"), ("error", message), *extra]


def _ms_since(t0: float) -> str:
    return io.fmt_float((time.perf_counter() - t0) * 1e3)


def _compact(strategy) -> str:
    """The strategy file's document on one line: one C-encoder ``json.dumps`` with sorted keys."""
    return json.dumps(io._strategy_doc(strategy), sort_keys=True)


def cmd_validate(args, game, pairs) -> int:
    pairs += [("status", "ok"), ("violations", "0")]
    return 0


def cmd_classify(args, game, pairs) -> int:
    t0 = time.perf_counter()
    result = classification.classify(game, semantics=args.semantics, budget=args.budget)
    pairs.append(("semantics", args.semantics))
    for i, idx in sorted(result.indices.indices.items()):
        pairs.append((f"index.{i}", str(idx) if idx is not None else "none"))
    pairs.append(("verdict", result.verdict))
    used = result.classical_value_used
    pairs.append(("omega_c_used", io.fmt_float(used) if used is not None else "unavailable"))
    pairs.append(("timing.classify_ms", _ms_since(t0)))
    return 0


def cmd_value(args, game, pairs) -> int:
    omega_c = omega_q = None
    if args.classical or not args.quantum:
        t0 = time.perf_counter()
        omega_c, witness = classical_value(game, budget=args.budget)
        pairs.append(("omega_c", io.fmt_float(omega_c)))
        pairs.append(("omega_c_witness", _compact(witness)))
        pairs.append(("timing.classical_ms", _ms_since(t0)))
    if args.quantum:
        t0 = time.perf_counter()
        opts = OptimizeOptions(
            restarts=args.restarts,
            tolerance=args.tolerance,
            seed=args.seed,
            pair_budget=args.pair_budget,
            allow_multiway=True,
        )
        result = optimize_quantum(game, opts)
        omega_q = result.value
        pairs.append(("omega_q_lower", io.fmt_float(omega_q)))
        pairs.append(("restarts_used", str(result.restarts_used)))
        pairs.append(("converged", "true" if result.converged else "false"))
        pairs.append(("omega_q_strategy", _compact(result.strategy)))
        pairs.append(("timing.quantum_ms", _ms_since(t0)))
    t0 = time.perf_counter()
    pairs.append(("verdict", classification.classify(game, omega_c=omega_c, budget=args.budget).verdict))
    pairs.append(("timing.classify_ms", _ms_since(t0)))
    if omega_c is not None and omega_q is not None:
        pairs.append(("advantage_observed", "true" if omega_q > omega_c else "false"))
    return 0


def cmd_simulate(args, game, pairs) -> int:
    try:
        strategy = io.parse_strategy_file(args.strategy)
        t0 = time.perf_counter()
        stats = run_session(game, SessionConfig(rounds=args.rounds, seed=args.seed, strategy=strategy))
    except FileNotFoundError:
        pairs += _error(f"no such strategy file: {args.strategy}")
        return 5
    except io.StrategyFileError as exc:
        pairs += _error(f"bad strategy file: {exc}")
        return 5
    except GraphGameError as exc:
        pairs += _error(str(exc))
        return 5
    elapsed = _ms_since(t0)
    pairs.append(("rounds", str(stats.rounds)))
    pairs.append(("wins", str(stats.wins)))
    pairs.append(("estimate", io.fmt_float(stats.estimate)))
    pairs.append(("stderr", io.fmt_float(stats.stderr)))
    for key, (plays, wins) in stats.per_input_counts.items():
        pairs.append((f"per_input.{key}", f"{plays} {wins}"))
    pairs.append(("timing.simulate_ms", elapsed))
    return 0


def cmd_gyni(args, game, pairs) -> int:
    pairs.append(("injective", "true" if check_injective(game.payoff.targets, game.n) else "false"))
    pairs.append(("classical_bound", io.fmt_float(gyni_classical_bound(game.distribution, game.n))))
    t0 = time.perf_counter()
    pairs.append(("brute_force_value", io.fmt_float(target_classical_value(game, budget=args.budget))))
    pairs.append(("timing.classical_ms", _ms_since(t0)))
    t0 = time.perf_counter()
    pairs.append(("quantum_probe", io.fmt_float(target_quantum_probe(game))))
    pairs.append(("timing.probe_ms", _ms_since(t0)))
    return 0


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_positive_int = _int_at_least(1)
_budget = _int_at_least(0)


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphgame",
        description="Build, validate, solve and simulate graph-based cooperative games.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check a game spec file")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate, requires=None)

    p = sub.add_parser("classify", help="sharing indices and advantage verdict")
    p.add_argument("spec")
    p.add_argument(
        "--semantics",
        choices=list(classification.SEMANTICS),
        default=classification.COMMON_INTERSECTION,
    )
    p.add_argument("--budget", type=_budget, default=DEFAULT_STRATEGY_BUDGET)
    p.set_defaults(func=cmd_classify, requires=(ConsistencyPayoff, "classify requires a consistency-mode game"))

    p = sub.add_parser("value", help="classical value and/or quantum lower bound")
    p.add_argument("spec")
    p.add_argument("--classical", action="store_true")
    p.add_argument("--quantum", action="store_true")
    p.add_argument("--restarts", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=_tolerance, default=OptimizeOptions.tolerance)
    p.add_argument("--budget", type=_budget, default=DEFAULT_STRATEGY_BUDGET)
    p.add_argument("--pair-budget", type=_budget, default=DEFAULT_PAIR_BUDGET)
    refusal = "value requires a consistency-mode game (see the gyni command)"
    p.set_defaults(func=cmd_value, requires=(ConsistencyPayoff, refusal))

    p = sub.add_parser("simulate", help="Monte Carlo referee sessions")
    p.add_argument("spec")
    p.add_argument("--strategy", required=True)
    p.add_argument("--rounds", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate, requires=(ConsistencyPayoff, "simulate requires a consistency-mode game"))

    p = sub.add_parser("gyni", help="target-mode analysis: injectivity, bounds, probe")
    p.add_argument("spec")
    p.add_argument("--restarts", type=_positive_int, default=20, help="validated; the probe ignores it")
    p.add_argument("--seed", type=int, default=0, help="validated; the probe ignores it")
    p.add_argument("--budget", type=_budget, default=DEFAULT_STRATEGY_BUDGET)
    p.set_defaults(func=cmd_gyni, requires=(TargetPayoff, "gyni requires a target-mode game"))

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses, built on the first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one request through the pipeline above; print its report, return its exit code."""
    args = _shared_parser().parse_args(argv)
    pairs = [("command", args.cmd), ("spec", str(args.spec))]
    try:
        game = io.parse_game_file(args.spec)
    except FileNotFoundError:
        return _emit(pairs + _error(f"no such file: {args.spec}"), 3)
    except io.GameSpecError as exc:
        loc = f" (line {exc.line}, column {exc.column})" if exc.line else ""
        return _emit(pairs + _error(f"parse error{loc}: {exc}"), 3)
    pairs.append(("game_digest", io.game_digest(game)))
    violations = validate_game(game)
    if violations:
        pairs += [("status", "invalid"), ("violations", str(len(violations)))]
        pairs += [(f"violation.{k}", f"[{v.code}] {v.message}") for k, v in enumerate(violations)]
        return _emit(pairs, 2)
    if args.requires and not isinstance(game.payoff, args.requires[0]):
        return _emit(pairs + _error(args.requires[1]), 6)
    try:
        code = args.func(args, game, pairs)
    except (StrategySpaceError, PairBudgetError) as exc:
        size = exc.pairs if isinstance(exc, PairBudgetError) else exc.space_size
        pairs += _error(str(exc), ("space_size", str(size)), ("budget", str(exc.budget)))
        code = 4
    return _emit(pairs, code)


if __name__ == "__main__":
    sys.exit(main())
