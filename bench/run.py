"""graphgame benchmark: one command, four checked workloads.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 bench/run.py --workload quantum-optimize --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28 --trace 1
    python3 bench/run.py --self-check

Each workload runs in a fresh child process (`worker.py`) on one thread,
with ``GRAPHGAME_THREADS`` unset.  `setup_s` is the median, over
`SETUP_RUNS` fresh processes, of the time from starting the process to
the end of set-up (importing graphgame, generating and parsing the
inputs).  With ``--trace 0`` the last line of output is a JSON object whose
metrics are the end-to-end figures; with ``--trace 1`` they are the
per-module figures of a traced run.  The lines before it give every figure
with its unit and sample counts, the failures seen, and the environment.

Exit status: 0 with a result, 1 when a run fails, 2 when there is no
graphgame source tree to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("classical-search", "quantum-optimize", "referee-sessions", "cli-requests")
SETUP_RUNS = 7  # fresh processes timed for setup_s, the measured run included
RUN_SLACK_S = 120  # a run is abandoned this long after its measuring time
OUT_DIR = ".bench_out"

# Gated end-to-end metrics, reported by every workload.
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
# End-to-end figures that belong to one workload (or that can be zero); they
# are printed in both modes and reported with the per-module metrics.
WORKLOAD_FIGURES = {
    "failed_ratio": "ratio",
    "quantum_gap_max": "probability",
    "rounds_per_s": "1/s",
    "replay_p50_ms": "ms",
}


def fail(code: int, message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return code


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "graphgame").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "GRAPHGAME_THREADS"}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def start_worker(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the set-up time."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - began
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out_dir = ROOT / OUT_DIR
    workdir = out_dir / f"work-{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", str(workdir)]
    deadline = time.monotonic() + seconds + RUN_SLACK_S
    try:
        setups = []
        for _ in range(SETUP_RUNS - 1):
            proc, setup = start_worker(argv + ["--setup-only"])
            finish(proc, timeout=deadline - time.monotonic())
            setups.append(setup)
        trace_file = out_dir / f"trace-{workload}.tsv.gz"
        proc, setup = start_worker(argv + ["--trace-file", str(trace_file)])
        setups.append(setup)
        lines = finish(proc, timeout=deadline - time.monotonic()).strip().splitlines()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(lines[-1])
    source = Path(result["graphgame_file"]).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"graphgame was imported from {source}, not from this checkout")
    result["setup_samples"] = setups
    result["end_to_end"]["figures"]["setup_s"] = (statistics.median(setups), "s")
    return result


def metrics_of(result: dict, trace: int) -> dict:
    figures = result["end_to_end"]["figures"]
    if not trace:
        return {name: {"value": figures[name][0], "unit": figures[name][1]} for name in END_TO_END}
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in result["per_layer"].items()}
    for name, unit in WORKLOAD_FIGURES.items():
        metrics[name] = {"value": figures.get(name, (0.0, unit))[0], "unit": unit}
    return metrics


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def report(workload: str, seed: int, seconds: float, trace: int, result: dict) -> None:
    e2e = result["end_to_end"]
    env = {
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": result["python"],
        "numpy": result["numpy"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
    print(f"== {workload} (seed {seed}, {seconds:g} s, trace {trace})")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"ops per pass {result['pass_size']}, {e2e['passes']} untraced passes, {e2e['samples']} op samples")
    figures = e2e["figures"]
    ops, passes = result["pass_size"], e2e["passes"]
    per_op = f"over {ops} ops, each at its median of {passes} passes"
    notes = {
        "setup_s": f"median of {len(result['setup_samples'])} fresh processes",
        "ops_per_s": per_op,
        "op_p50_ms": per_op,
        "op_tail_ms": f"p{e2e['tail_percentile']:g}: 10 of {ops} ops beyond, each at its median of {passes} passes",
        "failed_ratio": f"{result['failed']} of {result['attempted']} ops, each checked in every pass",
    }
    for name in END_TO_END + tuple(WORKLOAD_FIGURES):
        if name in figures:
            value, unit = figures[name]
            print(f"  {name:<16} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    if trace:
        print(f"per-module figures, per traced pass ({result['traced_passes']} passes):")
        for name, value in sorted(result["per_layer"].items()):
            print(f"  {name:<32} {value:>14.6g} {unit_of(name)}")
        if "trace_file" in result:
            print(f"spans and counters: {Path(result['trace_file']).relative_to(ROOT)}")
    for key, count in sorted(result["failures"].items()):
        print(f"  failed x{count}: {key}")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    result = run_workload(workload, seed, seconds, trace)
    report(workload, seed, seconds, trace, result)
    return {
        "correct": result["regressions"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics_of(result, trace),
        "failure_codes": result["failure_codes"],
    }


def self_check(seed: int) -> int:
    """Short runs of every workload in both modes; asserts the contract."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    defects = present_defects()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            outcome = run_one(workload, seed, 1.0, trace)
            got = {name: m["unit"] for name, m in outcome["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(wanted[trace]))} "
                                f"or units differ from BENCHMARK.json")
            if not outcome["correct"]:
                problems.append(f"{workload} trace {trace}: a check other than a known defect failed")
            for code, workloads_with in defects.items():
                counted = outcome["failure_codes"].get(code, 0) > 0
                if counted != (workload in workloads_with):
                    problems.append(f"{workload} trace {trace}: known defect {code} counted={counted}")
    for problem in problems:
        print("self-check: " + problem)
    print("self-check: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def present_defects() -> dict[str, tuple[str, ...]]:
    """Which known defects the program still has, probed directly."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import graphgame as gg
    import workloads
    from graphgame import games, io

    present = {}
    cube = games.cube_game(3)
    options = gg.OptimizeOptions(restarts=1, allow_multiway=True)
    if gg.optimize_quantum(cube, options).value < gg.classical_value(cube)[0]:
        present[workloads.QUANTUM_BELOW_CLASSICAL] = ("quantum-optimize", "cli-requests")
    path = ROOT / OUT_DIR / "self-check-invalid.game"
    path.parent.mkdir(exist_ok=True)
    path.write_text(io.serialize_game(games.star_game(3, 1.7)))
    code, _ = workloads.run_cli(["classify", str(path)])
    path.unlink()
    if code != 2:
        present[workloads.INVALID_SPEC_ACCEPTED] = ("cli-requests",)
    return present


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "graphgame" / "__init__.py").is_file():
        return fail(2, f"no graphgame source under {ROOT / 'src'}; run from the root of a checkout")
    if args.self_check:
        return self_check(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        try:
            outcomes[name] = run_one(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            return fail(1, f"{name}: {exc}")
    if args.workload == "all":
        summary = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{w}.{m}": v for w, o in outcomes.items() for m, v in o["metrics"].items()},
        }
    else:
        summary = {k: v for k, v in outcomes[args.workload].items() if k != "failure_codes"}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
