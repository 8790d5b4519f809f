"""One workload in one fresh process: set up, run passes, check, report.

`run.py` starts this file as a child process.  The child prints ``ready``
once its set-up is done (the parent times set-up up to that line), then,
unless ``--setup-only``, runs the workload's pass repeatedly and prints one
JSON line with its figures.

With ``--trace 1`` the time is split in two: an untraced half, which gives
the end-to-end figures and the base for `trace.overhead_ratio`, and a traced
half, which gives the per-module figures.  Set-up is traced too, since
parsing happens there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import graphgame  # noqa: E402
import numpy  # noqa: E402
import workloads  # noqa: E402
from spans import CHECK, OP, SETUP, Tracer  # noqa: E402

SETUP_AND_OP = frozenset({SETUP, OP})
OP_ONLY = frozenset({OP})
OP_AND_CHECK = frozenset({OP, CHECK})

_PARSE = ("io.parse_game", "io.parse_game_file", "io.parse_strategy", "io.parse_strategy_file")
_RENDER = ("io.render_report", "io.serialize_strategy", "io.game_digest", "io.serialize_game", "io.fmt_float")
_REFEREE = ("model.evaluate_payoff", "model.evaluate_target_payoff")
_TARGET = (
    "classical.target_classical_value",
    "classical.target_value_from_tables",
    "classical.gyni_classical_bound",
    "classical.check_injective",
)

# metric -> (mode, functions, phases).  Set-up spans count once; op and
# check spans are averaged over the traced passes.
SPAN_METRICS = {
    "io.parse_calls": ("calls", _PARSE, SETUP_AND_OP),
    "io.parse_s": ("incl", _PARSE, SETUP_AND_OP),
    "io.render_s": ("incl", _RENDER, SETUP_AND_OP),
    "model.validate_calls": ("calls", ("model.validate_game",), OP_ONLY),
    "model.validate_s": ("incl", ("model.validate_game",), OP_ONLY),
    "model.referee_calls": ("calls", _REFEREE, OP_ONLY),
    "model.referee_s": ("incl", _REFEREE, OP_ONLY),
    "classical.search_calls": ("calls", ("classical.classical_value",), OP_ONLY),
    "classical.search_s": ("incl", ("classical.classical_value",), OP_ONLY),
    "classical.target_s": ("incl", _TARGET, OP_ONLY),
    "classification.classify_calls": ("calls", ("classification.classify",), OP_ONLY),
    "classification.classify_self_s": ("self", ("classification.classify",), OP_ONLY),
    "classification.structure_s": ("incl", ("classification.sharing_structure",), OP_ONLY),
    "quantum.build_s": ("incl", ("quantum.build_strategy", "quantum.build_pair_model"), OP_ONLY),
    "quantum.optimize_calls": ("calls", ("quantum.optimize_quantum",), OP_ONLY),
    "quantum.optimize_self_s": ("self", ("quantum.optimize_quantum",), OP_ONLY),
    # No op calls the exact evaluator; the figure is the cost of the
    # benchmark's own exactness checks on the emitted strategies.
    "quantum.exact_value_s": ("incl", ("quantum.exact_quantum_value",), OP_AND_CHECK),
    "quantum.probe_s": ("incl", ("quantum.target_quantum_probe",), OP_ONLY),
    "runner.session_calls": ("calls", ("runner.run_session",), OP_ONLY),
    "runner.replay_calls": ("calls", ("runner.replay_round",), OP_ONLY),
    "runner.replay_s": ("incl", ("runner.replay_round",), OP_ONLY),
    "cli.requests": ("calls", ("cli.main",), OP_ONLY),
}
# module self time inside calls of one entry point: metric -> (module, root)
SELF_UNDER = {
    "runner.session_self_s": ("runner", "runner.run_session"),
    "cli.self_s": ("cli", "cli.main"),
}
# op counters summed per pass
COUNTER_METRICS = (
    "classical.space_points",
    "quantum.restarts",
    "quantum.pairs",
    "quantum.slots",
    "runner.rounds",
    "cli.exit_0",
    "cli.exit_2",
    "cli.exit_3",
    "cli.exit_4",
    "cli.exit_5",
    "cli.exit_6",
)


class Phase:
    """Figures from one stretch of passes."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # in op order, pass after pass
        self.passes = 0
        self.problems: dict[int, set[tuple[str, str]]] = {}  # op index -> (code, message)
        self.counters: Counter[str] = Counter()
        self.gaps: list[float] = []

    def typical(self, pass_size: int) -> list[float]:
        """Each op's median latency across the passes.

        A shared host swings between fast and slow stretches lasting
        seconds.  On a shared 2-core host, each op's fastest pass caught
        the fast stretches only now and then, which left 25 s stretches of
        the same process over a fifth apart; each op's median kept them
        within a twentieth.
        """
        return [statistics.median(self.latencies[j::pass_size]) for j in range(pass_size)]


def run_passes(ops, budget: float, phase: Phase, tracer: Tracer | None) -> None:
    """Repeat the pass while another one fits in ``budget`` seconds (at least once)."""
    clock = time.perf_counter
    began = clock()
    last = 0.0
    while phase.passes == 0 or clock() - began + last <= budget:
        pass_began = clock()
        for op_id, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id, tracer.current_phase = op_id, OP
            t0 = clock()
            out = op.call()
            latency = clock() - t0
            if tracer is not None:
                tracer.current_phase = CHECK
            problems = op.check(out)
            counters = op.counters(out)
            if tracer is not None:
                for name, value in counters.items():
                    tracer.count(name, value)
            record(phase, op_id, latency, problems, counters)
        phase.passes += 1
        last = clock() - pass_began


def record(phase: Phase, op_id: int, latency: float, problems, counters) -> None:
    phase.latencies.append(latency)
    if problems:
        phase.problems.setdefault(op_id, set()).update(problems)
    for name, value in counters.items():
        if name == "quantum.gap":
            phase.gaps.append(value)
        else:
            phase.counters[name] += value


def checked(ops, phases: list[Phase]) -> dict:
    """Failure counts over the ops of the pass.

    An op is attempted once per run whatever the number of passes, and it
    fails if its output failed a check in any pass, so the counts depend on
    the seed alone and not on how many passes fit in the run.
    """
    problems: dict[int, set[tuple[str, str]]] = {}
    for phase in phases:
        for op_id, found in phase.problems.items():
            problems.setdefault(op_id, set()).update(found)
    failures: Counter[str] = Counter()  # "label: [code] message" -> ops
    codes: Counter[str] = Counter()  # check code -> ops
    for op_id, found in problems.items():
        failures.update({f"{ops[op_id].label}: [{code}] {message}" for code, message in found})
        codes.update({code for code, _ in found})
    return {
        "attempted": len(ops),
        "failed": len(problems),
        "regressions": sum(
            any(code not in workloads.KNOWN_DEFECTS for code, _ in found) for found in problems.values()
        ),
        "failures": failures,
        "failure_codes": codes,
    }


def end_to_end(phase: Phase, ops) -> dict:
    """End-to-end figures over the ops of the pass, each at its median pass.

    The tail is the highest percentile with ten ops of the pass beyond it.
    """
    size = len(ops)
    slots = phase.typical(size)
    ranked = sorted(slots)
    figures = {
        "ops_per_s": (size / sum(slots), "1/s"),
        "op_p50_ms": (statistics.median(slots) * 1e3, "ms"),
        "op_tail_ms": (ranked[max(0, size - 11)] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if phase.gaps:
        figures["quantum_gap_max"] = (max(phase.gaps), "probability")
    sessions = [(op.rounds, t) for op, t in zip(ops, slots) if op.kind == "session"]
    if sessions:
        replays = [t for op, t in zip(ops, slots) if op.kind == "replay"]
        figures["rounds_per_s"] = (sum(r for r, _ in sessions) / sum(t for _, t in sessions), "1/s")
        figures["replay_p50_ms"] = (statistics.median(replays) * 1e3, "ms")
    return {
        "figures": figures,
        "samples": len(phase.latencies),
        "tail_percentile": round(100.0 * (size - 10) / size, 3),
        "passes": phase.passes,
    }


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase, size: int) -> dict:
    passes = traced.passes
    g = "graphgame."
    out: dict[str, float] = {}
    setup = tracer.aggregate(
        {m: (mode, frozenset(g + f for f in funcs), frozenset({SETUP}) & phases)
         for m, (mode, funcs, phases) in SPAN_METRICS.items()}
    )
    running = tracer.aggregate(
        {m: (mode, frozenset(g + f for f in funcs), phases - {SETUP})
         for m, (mode, funcs, phases) in SPAN_METRICS.items()}
    )
    for metric in SPAN_METRICS:
        out[metric] = setup[metric] + running[metric] / passes
    for metric, (module, root) in SELF_UNDER.items():
        out[metric] = tracer.self_time_under(g + module, g + root, OP_ONLY) / passes
    for metric in COUNTER_METRICS:
        out[metric] = traced.counters.get(metric, 0.0) / passes
    calls = traced.counters.get("quantum.converged", 0.0)
    optimized = out["quantum.optimize_calls"] * passes
    out["quantum.converged_ratio"] = calls / optimized if optimized else 0.0
    out["trace.overhead_ratio"] = sum(traced.typical(size)) / sum(untraced.typical(size)) - 1.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    ops = workloads.build(args.workload, args.seed, args.workdir)
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    untraced = Phase()
    budget = args.seconds / 2 if tracer is not None else args.seconds
    run_passes(ops, budget, untraced, None)
    result = {
        "end_to_end": end_to_end(untraced, ops),
        "pass_size": len(ops),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "graphgame_file": graphgame.__file__,
    }
    phases = [untraced]
    if tracer is not None:
        traced = Phase()
        tracer.install()
        try:
            run_passes(ops, budget, traced, tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        result["per_layer"] = per_layer(tracer, traced, untraced, len(ops))
        result["traced_passes"] = traced.passes
        if args.trace_file is not None:
            tracer.write(args.trace_file)
            result["trace_file"] = str(args.trace_file)
    result.update(checked(ops, phases))
    result["end_to_end"]["figures"]["failed_ratio"] = (result["failed"] / result["attempted"], "ratio")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
