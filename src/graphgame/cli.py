"""Command-line interface.

Commands: validate, classify, value, simulate, gyni.  Each prints a plain
``key: value`` report (see report_schema.txt).  Exit codes:

    0  success (classify reports Unknown softly)
    2  spec fails validation
    3  spec or strategy file cannot be parsed
    4  a solver budget was exceeded
    5  strategy file missing or incompatible with the game
    6  command requires the other payoff mode

Every command validates the spec right after parsing and refuses an invalid
one with the ``validate`` report lines and exit 2.  ``value --quantum``
lower-bounds the quantum value by exact coordinate ascent over the
measurement angles: each step reads the sinusoid along one angle off the
compiled correlator polynomial in one pass over the terms holding that
angle and jumps to its maximum, stopping once a sweep gains less than
``--tolerance``.  These are usage errors (exit 2): ``--restarts`` or
``--rounds`` below 1, a negative ``--budget`` or ``--pair-budget``, and a
negative or non-finite ``--tolerance``.  A budget of 0 is allowed: every
classical search, and every quantum one with a pair, then exceeds it.
The package needs NumPy 2.0 or later.
"""

from __future__ import annotations

import argparse
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
from .runner import SessionConfig, StrategyMismatchError, run_session


def _emit(pairs, code: int = 0) -> int:
    """Print the report and pass on its exit code."""
    sys.stdout.write(io.render_report(pairs))
    return code


def _fail(pairs, code: int, message: str, *extra: tuple[str, str]) -> int:
    """Finish the report with ``status: error``, ``message`` and ``extra`` lines."""
    pairs += [("status", "error"), ("error", message), *extra]
    return _emit(pairs, code)


def _over_budget(pairs, exc, space_size: int) -> int:
    return _fail(pairs, 4, str(exc), ("space_size", str(space_size)), ("budget", str(exc.budget)))


def _load_spec(path, pairs) -> object | None:
    try:
        return io.parse_game_file(path)
    except FileNotFoundError:
        pairs.append(("status", "error"))
        pairs.append(("error", f"no such file: {path}"))
        return None
    except io.GameSpecError as exc:
        pairs.append(("status", "error"))
        loc = f" (line {exc.line}, column {exc.column})" if exc.line else ""
        pairs.append(("error", f"parse error{loc}: {exc}"))
        return None


def _load_valid_spec(path, pairs) -> tuple[object | None, int]:
    """Parse and validate a spec; on failure the report lines and exit code."""
    game = _load_spec(path, pairs)
    if game is None:
        return None, 3
    pairs.append(("game_digest", io.game_digest(game)))
    violations = validate_game(game)
    if violations:
        pairs.append(("status", "invalid"))
        pairs.append(("violations", str(len(violations))))
        for k, v in enumerate(violations):
            pairs.append((f"violation.{k}", f"[{v.code}] {v.message}"))
        return None, 2
    return game, 0


def cmd_validate(args) -> int:
    pairs = [("command", "validate"), ("spec", str(args.spec))]
    game, code = _load_valid_spec(args.spec, pairs)
    if game is None:
        return _emit(pairs, code)
    pairs.append(("status", "ok"))
    pairs.append(("violations", "0"))
    return _emit(pairs)


def cmd_classify(args) -> int:
    pairs = [("command", "classify"), ("spec", str(args.spec))]
    game, code = _load_valid_spec(args.spec, pairs)
    if game is None:
        return _emit(pairs, code)
    if not isinstance(game.payoff, ConsistencyPayoff):
        return _fail(pairs, 6, "classify requires a consistency-mode game")
    t0 = time.perf_counter()
    result = classification.classify(game, semantics=args.semantics, budget=args.budget)
    pairs.append(("semantics", args.semantics))
    for i in sorted(result.indices.indices):
        idx = result.indices.indices[i]
        pairs.append((f"index.{i}", str(idx) if idx is not None else "none"))
    pairs.append(("verdict", result.verdict))
    used = result.classical_value_used
    pairs.append(("omega_c_used", io.fmt_float(used) if used is not None else "unavailable"))
    pairs.append(("timing.classify_ms", io.fmt_float((time.perf_counter() - t0) * 1e3)))
    return _emit(pairs)


def cmd_value(args) -> int:
    pairs = [("command", "value"), ("spec", str(args.spec))]
    game, code = _load_valid_spec(args.spec, pairs)
    if game is None:
        return _emit(pairs, code)
    if not isinstance(game.payoff, ConsistencyPayoff):
        return _fail(pairs, 6, "value requires a consistency-mode game (see the gyni command)")
    want_classical = args.classical or not args.quantum
    omega_c = None
    witness = None
    if want_classical:
        t0 = time.perf_counter()
        try:
            omega_c, witness = classical_value(game, budget=args.budget)
        except StrategySpaceError as exc:
            return _over_budget(pairs, exc, exc.space_size)
        pairs.append(("omega_c", io.fmt_float(omega_c)))
        pairs.append(("omega_c_witness", json.dumps(json.loads(io.serialize_strategy(witness)), sort_keys=True)))
        pairs.append(("timing.classical_ms", io.fmt_float((time.perf_counter() - t0) * 1e3)))
    omega_q = None
    if args.quantum:
        t0 = time.perf_counter()
        opts = OptimizeOptions(
            restarts=args.restarts,
            tolerance=args.tolerance,
            seed=args.seed,
            pair_budget=args.pair_budget,
            allow_multiway=True,
        )
        try:
            result = optimize_quantum(game, opts)
        except PairBudgetError as exc:
            return _over_budget(pairs, exc, exc.pairs)
        omega_q = result.value
        pairs.append(("omega_q_lower", io.fmt_float(result.value)))
        pairs.append(("restarts_used", str(result.restarts_used)))
        pairs.append(("converged", "true" if result.converged else "false"))
        pairs.append(
            ("omega_q_strategy", json.dumps(json.loads(io.serialize_strategy(result.strategy)), sort_keys=True))
        )
        pairs.append(("timing.quantum_ms", io.fmt_float((time.perf_counter() - t0) * 1e3)))
    t0 = time.perf_counter()
    verdictobj = classification.classify(game, omega_c=omega_c, budget=args.budget)
    pairs.append(("verdict", verdictobj.verdict))
    pairs.append(("timing.classify_ms", io.fmt_float((time.perf_counter() - t0) * 1e3)))
    if omega_c is not None and omega_q is not None:
        pairs.append(("advantage_observed", "true" if omega_q > omega_c else "false"))
    return _emit(pairs)


def cmd_simulate(args) -> int:
    pairs = [("command", "simulate"), ("spec", str(args.spec))]
    game, code = _load_valid_spec(args.spec, pairs)
    if game is None:
        return _emit(pairs, code)
    if not isinstance(game.payoff, ConsistencyPayoff):
        return _fail(pairs, 6, "simulate requires a consistency-mode game")
    try:
        strategy = io.parse_strategy_file(args.strategy)
    except FileNotFoundError:
        return _fail(pairs, 5, f"no such strategy file: {args.strategy}")
    except io.StrategyFileError as exc:
        return _fail(pairs, 5, f"bad strategy file: {exc}")
    config = SessionConfig(rounds=args.rounds, seed=args.seed, strategy=strategy)
    t0 = time.perf_counter()
    try:
        stats = run_session(game, config)
    except (StrategyMismatchError, GraphGameError) as exc:
        return _fail(pairs, 5, str(exc))
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    pairs.append(("rounds", str(stats.rounds)))
    pairs.append(("wins", str(stats.wins)))
    pairs.append(("estimate", io.fmt_float(stats.estimate)))
    pairs.append(("stderr", io.fmt_float(stats.stderr)))
    for key, (plays, wins) in stats.per_input_counts.items():
        pairs.append((f"per_input.{key}", f"{plays} {wins}"))
    pairs.append(("timing.simulate_ms", io.fmt_float(elapsed_ms)))
    return _emit(pairs)


def cmd_gyni(args) -> int:
    pairs = [("command", "gyni"), ("spec", str(args.spec))]
    game, code = _load_valid_spec(args.spec, pairs)
    if game is None:
        return _emit(pairs, code)
    if not isinstance(game.payoff, TargetPayoff):
        return _fail(pairs, 6, "gyni requires a target-mode game")
    injective = check_injective(game.payoff.targets, game.n)
    pairs.append(("injective", "true" if injective else "false"))
    pairs.append(("classical_bound", io.fmt_float(gyni_classical_bound(game.distribution, game.n))))
    t0 = time.perf_counter()
    try:
        brute = target_classical_value(game, budget=args.budget)
    except StrategySpaceError as exc:
        return _over_budget(pairs, exc, exc.space_size)
    pairs.append(("brute_force_value", io.fmt_float(brute)))
    pairs.append(("timing.classical_ms", io.fmt_float((time.perf_counter() - t0) * 1e3)))
    opts = OptimizeOptions(restarts=args.restarts, seed=args.seed)
    t0 = time.perf_counter()
    pairs.append(("quantum_probe", io.fmt_float(target_quantum_probe(game, opts))))
    pairs.append(("timing.probe_ms", io.fmt_float((time.perf_counter() - t0) * 1e3)))
    return _emit(pairs)


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
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="sharing indices and advantage verdict")
    p.add_argument("spec")
    p.add_argument(
        "--semantics",
        choices=list(classification.SEMANTICS),
        default=classification.COMMON_INTERSECTION,
    )
    p.add_argument("--budget", type=_budget, default=DEFAULT_STRATEGY_BUDGET)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("value", help="classical value and/or quantum lower bound")
    p.add_argument("spec")
    p.add_argument("--classical", action="store_true")
    p.add_argument("--quantum", action="store_true")
    p.add_argument("--restarts", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=_tolerance, default=OptimizeOptions.tolerance)
    p.add_argument("--budget", type=_budget, default=DEFAULT_STRATEGY_BUDGET)
    p.add_argument("--pair-budget", type=_budget, default=DEFAULT_PAIR_BUDGET)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("simulate", help="Monte Carlo referee sessions")
    p.add_argument("spec")
    p.add_argument("--strategy", required=True)
    p.add_argument("--rounds", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gyni", help="target-mode analysis: injectivity, bounds, probe")
    p.add_argument("spec")
    p.add_argument("--restarts", type=_positive_int, default=20, help="validated; the probe ignores it")
    p.add_argument("--seed", type=int, default=0, help="validated; the probe ignores it")
    p.add_argument("--budget", type=_budget, default=DEFAULT_STRATEGY_BUDGET)
    p.set_defaults(func=cmd_gyni)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
