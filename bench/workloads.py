"""The benchmark's four workloads: seeded inputs, ops and per-op checks.

Each workload is a closed loop, one client in one process: the next op is
sent when the previous one returns.  `build(name, seed, workdir)` makes the
workload's inputs from the seed alone, serializes every generated game to
spec text and parses it back with `graphgame.io.parse_game`, so the program
sees only spec text.  It returns one *pass*: a fixed list of ops that the
worker repeats.  Every pass of a run is identical, so the figures do not
depend on how many passes fit in the run.

An op's `call` is the timed user-level request; its `check` runs outside
the timed region and compares the output with an independent reference.
A check returns ``(code, message)`` problems; an op with any problem counts
as failed.  Two codes name ROADMAP invariants that the program is known not
to keep yet (`KNOWN_DEFECTS`): a failure there is counted, but is not a
regression.

Only public names are called, and only options the ROADMAP keeps are
passed: `OptimizeOptions(restarts, seed, allow_multiway)` and, on the
command line, `--classical --quantum --restarts --seed --rounds --strategy`.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import math
import random
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path
from typing import Any, Callable

import graphgame as gg
from graphgame import cli, games
from graphgame import io as ggio

# ROADMAP correctness aims the program does not meet yet.  Ops that break
# them are counted in `failed`; `correct` stays true unless another check fails.
QUANTUM_BELOW_CLASSICAL = "quantum-below-classical"  # omega_q_lower < omega_c
INVALID_SPEC_ACCEPTED = "invalid-spec-accepted"  # a command does not refuse an invalid spec
KNOWN_DEFECTS = frozenset({QUANTUM_BELOW_CLASSICAL, INVALID_SPEC_ACCEPTED})

EXACT_TOL = 1e-12
# The tolerance the package's tests state for the optimizer against the
# star closed form.
CLOSED_FORM_TOL = 1e-3
CHSH_QUANTUM = (2.0 + math.sqrt(2.0)) / 4.0

Problems = list[tuple[str, str]]


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Problems]
    counters: Callable[[Any], dict[str, float]] = field(default=lambda out: {})
    kind: str = "op"  # "session" and "replay" feed the referee-sessions figures
    rounds: int = 0


def _jitter(rng: random.Random, p: float) -> float:
    return round(p + rng.uniform(-0.02, 0.02), 6)


def _through_spec(game: gg.GraphicGame) -> gg.GraphicGame:
    return ggio.parse_game(ggio.serialize_game(game))


def _space(game: gg.GraphicGame) -> int:
    """Reduced strategy space the search reports, from a budget=0 probe."""
    try:
        gg.classical_value(game, budget=0)
    except gg.StrategySpaceError as exc:
        return exc.space_size
    raise AssertionError("a budget=0 search cannot succeed")


def _close(a: float, b: float, tol: float = EXACT_TOL) -> bool:
    return abs(a - b) <= tol


def _in_unit_interval(value: float) -> bool:
    # Values are sums of input weights, so allow the rounding of a sum.
    return -EXACT_TOL <= value <= 1.0 + EXACT_TOL


# -- independent references --------------------------------------------------


def naive_sharing_index(game: gg.GraphicGame, i: int) -> int | None:
    """Sharing index (common-intersection) by direct subset enumeration."""
    others = [
        j
        for j in range(game.m + 1, game.n + 1)
        if all(game.owned(i, a) & game.owned(j, b) for a in (0, 1) for b in (0, 1))
    ]
    if not others:
        return None
    best = None
    for s in range(2, len(others) + 2):
        for combo in combinations(others, s - 1):
            members = (i,) + combo
            if all(
                frozenset.intersection(*[game.owned(p, xp) for p, xp in zip(members, bits)])
                for bits in product((0, 1), repeat=s)
            ):
                best = s
                break
    return best


def random_consistency_game(rng: random.Random) -> gg.GraphicGame:
    """Random well-formed consistency game with 3 to 5 players."""
    n = rng.randint(3, 5)
    m = rng.randint(1, n - 1)
    vertices = [f"v{k}" for k in range(rng.randint(2, 5))]
    owned = {
        (i, x): [v for v in vertices if rng.random() < 0.5]
        for i in range(1, n + 1)
        for x in (0, 1)
    }
    taken: set[str] = set()
    for i in range(1, m + 1):  # the low block is disjoint at input 1
        owned[(i, 1)] = [v for v in owned[(i, 1)] if v not in taken]
        taken |= set(owned[(i, 1)])
    return gg.GraphicGame(
        graph=gg.Graph(vertices),
        n=n,
        m=m,
        assignments=gg.AssignmentMap(owned),
        distribution=gg.IIDDistribution(_jitter(rng, rng.choice((0.3, 0.5, 0.7)))),
        payoff=gg.ConsistencyPayoff(),
    )


# -- classical-search ---------------------------------------------------------

_FAMILY_VERDICT = {
    "star": "QuantumAdvantage",
    "chain": "QuantumAdvantage",
    "shared": "NoQuantumAdvantage",
    "cube": "NoQuantumAdvantage",
}

# Reduced-space band for the random games.  Their cost depends on the seed,
# so they are kept below the star4 and chain4 ops, which hold the median;
# the star5 ops hold the tail.
_RANDOM_SPACE = (1 << 4, 1 << 9)


def _classical_ops(rng: random.Random) -> list[Op]:
    cases: list[tuple[str, str, gg.GraphicGame, float | None]] = []
    grid = tuple(round(0.1 + 0.05 * k, 2) for k in range(17))  # 0.1 .. 0.9
    for n1, priors in ((4, grid[:16]), (5, grid[::2] + (0.45,)), (6, (0.3, 0.7))):
        for p0 in priors:
            p = _jitter(rng, p0)
            cf = gg.closed_form_star_classical(gg.ClosedFormParams(p, n1=n1))
            cases.append((f"star{n1}", "star", games.star_game(n1, p), cf))
    cases.append(("cube3", "cube", games.cube_game(3, _jitter(rng, 0.5)), 1.0))
    for p0 in (0.3, 0.5, 0.7, 0.85):
        cases.append(("chain4", "chain", games.chain_game(_jitter(rng, p0)), None))
    for l in (3, 4, 5):  # noqa: E741
        for p0 in (0.3, 0.7):
            p = _jitter(rng, p0)
            cf = gg.closed_form_shared_classical(gg.ClosedFormParams(p, l=l))
            cases.append((f"shared{l}", "shared", games.shared_game(l, p=p), cf))
    randoms = 0
    while randoms < 8:
        game = random_consistency_game(rng)
        if gg.validate_game(game) or not _RANDOM_SPACE[0] <= _space(game) <= _RANDOM_SPACE[1]:
            continue
        cases.append((f"random{game.n}", "random", game, None))
        randoms += 1

    ops = []
    for label, family, built, closed in cases:
        game = _through_spec(built)
        space = _space(game)
        ops.append(
            Op(
                label=label,
                call=_classical_call(game),
                check=_classical_check(game, family, closed),
                counters=lambda out, space=space: {"classical.space_points": space},
            )
        )
    return ops


def _classical_call(game):
    def call():
        value, witness = gg.classical_value(game)
        return value, witness, gg.classify(game, omega_c=value)

    return call


def _classical_check(game, family, closed):
    def check(out) -> Problems:
        value, witness, result = out
        problems = []
        if not _in_unit_interval(value):
            problems.append(("value-range", f"omega_c={value!r}"))
        if closed is not None and not _close(value, closed):
            problems.append(("closed-form", f"omega_c={value!r}, closed form {closed!r}"))
        replay = gg.strategy_value(game, witness)
        if not _close(replay, value):
            problems.append(("witness", f"witness scores {replay!r}, reported {value!r}"))
        if result.classical_value_used != value:
            problems.append(("classify-value", f"classify used {result.classical_value_used!r}"))
        for i in range(1, game.m + 1):
            want = naive_sharing_index(game, i)
            if result.indices.indices[i] != want:
                problems.append(("sharing-index", f"I_{i}={result.indices.indices[i]}, want {want}"))
        want = _FAMILY_VERDICT.get(family)
        if want is not None and result.verdict != want:
            problems.append(("verdict", f"{result.verdict}, want {want}"))
        return problems

    return check


# -- quantum-optimize ----------------------------------------------------------


def _quantum_ops(rng: random.Random) -> list[Op]:
    # The optimizer's run time is chaotic in the prior and the start angles:
    # moving a star3 prior by 0.02 can take one op from 0.13 s to 0.6 s.  So
    # the games with pairs use a fixed prior grid and fixed optimizer seeds,
    # and the workload seed moves the priors of the pair-free games, whose
    # cost does not depend on them.  The star3 ops are the bulk of the pass,
    # so the median and the tail fall among them, and a pass takes a few
    # seconds, so a run holds several.
    cases: list[tuple[str, gg.GraphicGame, float | None]] = []
    for _ in range(4):
        cases.append(("chsh", games.chsh_game(0.5), CHSH_QUANTUM))
    for n1, priors in ((3, (0.2, 0.35, 0.5, 0.65, 0.8) * 3), (4, (0.2, 0.8))):
        for p in priors:
            cf = gg.closed_form_star_quantum(gg.ClosedFormParams(p, n1=n1))
            cases.append((f"star{n1}", games.star_game(n1, p), cf))
    cases.append(("chain4", games.chain_game(0.8), None))
    # shared3 falls below omega_c for every prior under 0.5 and meets it from
    # 0.5 up, so its prior stays clear of 0.5: the failure count must not
    # depend on the seed.
    cases.append(("shared3", games.shared_game(3, p=_jitter(rng, 0.4)), None))
    cases.append(("cube3", games.cube_game(3, _jitter(rng, 0.5)), None))

    ops = []
    omega_c_cache: dict[str, float] = {}
    for index, (label, built, closed) in enumerate(cases):
        game = _through_spec(built)
        opts = gg.OptimizeOptions(restarts=1, seed=index, allow_multiway=True)
        pairs = len(gg.build_pair_model(game, allow_multiway=True).pairs)
        ops.append(
            Op(
                label=label,
                call=lambda game=game, opts=opts: gg.optimize_quantum(game, opts),
                check=_quantum_check(game, closed, omega_c_cache),
                counters=lambda out, pairs=pairs, closed=closed: _quantum_counters(out, pairs, closed),
            )
        )
    return ops


def _quantum_counters(result, pairs: int, closed: float | None) -> dict[str, float]:
    counters = {
        "quantum.restarts": result.restarts_used,
        "quantum.converged": float(result.converged),
        "quantum.pairs": pairs,
        "quantum.slots": len(result.strategy.angles),
    }
    if closed is not None:
        counters["quantum.gap"] = closed - result.value
    return counters


def _quantum_check(game, closed, omega_c_cache):
    digest = ggio.game_digest(game)

    def check(result) -> Problems:
        problems = []
        value = result.value
        if not _in_unit_interval(value):
            problems.append(("value-range", f"omega_q_lower={value!r}"))
        exact = gg.exact_quantum_value(game, result.strategy, allow_multiway=True)
        if not _close(exact, value):
            problems.append(("exact-value", f"strategy scores {exact!r}, reported {value!r}"))
        if closed is not None and value < closed - CLOSED_FORM_TOL:
            problems.append(("closed-form", f"omega_q_lower={value!r}, closed form {closed!r}"))
        if digest not in omega_c_cache:
            omega_c_cache[digest] = gg.classical_value(game)[0]
        omega_c = omega_c_cache[digest]
        if value < omega_c - EXACT_TOL:
            problems.append((QUANTUM_BELOW_CLASSICAL, f"omega_q_lower={value!r} < omega_c={omega_c!r}"))
        return problems

    return check


# -- referee-sessions -----------------------------------------------------------

_SESSION_ROUNDS = 1000
_REPLAYS_PER_SESSION = 4


def _random_angles(rng: random.Random, strategy: gg.QuantumStrategy) -> gg.QuantumStrategy:
    return strategy.with_angles({k: rng.uniform(0.0, 2.0 * math.pi) for k in sorted(strategy.angles)})


def _joint_star3(rng: random.Random) -> gg.GraphicGame:
    base = games.star_game(3)
    weights = [rng.uniform(0.5, 1.5) for _ in range(8)]
    keys = ["".join(map(str, x)) for x in product((0, 1), repeat=3)]
    total = sum(weights)
    table = {k: w / total for k, w in zip(keys, weights)}
    table[keys[-1]] = 1.0 - sum(table[k] for k in keys[:-1])
    return gg.GraphicGame(
        graph=base.graph,
        n=base.n,
        m=base.m,
        assignments=base.assignments,
        distribution=gg.JointDistribution(table),
        payoff=base.payoff,
    )


def _session_ops(rng: random.Random) -> list[Op]:
    chsh = _through_spec(games.chsh_game(_jitter(rng, 0.5)))
    star4 = _through_spec(games.star_game(4, _jitter(rng, 0.5)))
    chain4 = _through_spec(games.chain_game(_jitter(rng, 0.5)))
    joint = _through_spec(_joint_star3(rng))
    opts = gg.OptimizeOptions(restarts=1, seed=rng.getrandbits(32), allow_multiway=True)
    plays = [
        ("chsh-quantum", chsh, gg.optimize_quantum(chsh, opts).strategy),
        ("chsh-classical", chsh, gg.classical_value(chsh)[1]),
        ("star4-quantum", star4, _random_angles(rng, gg.build_strategy(star4, allow_multiway=True)[0])),
        ("chain4-quantum", chain4, _random_angles(rng, gg.build_strategy(chain4, allow_multiway=True)[0])),
        ("joint-quantum", joint, _random_angles(rng, gg.build_strategy(joint, allow_multiway=True)[0])),
        ("joint-classical", joint, gg.classical_value(joint)[1]),
    ]
    ops = []
    for label, game, strategy in plays:
        if isinstance(strategy, gg.QuantumStrategy):
            exact = gg.exact_quantum_value(game, strategy, allow_multiway=True)
        else:
            exact = gg.strategy_value(game, strategy)
        for _ in range(2):
            config = gg.SessionConfig(rounds=_SESSION_ROUNDS, seed=rng.getrandbits(32), strategy=strategy)
            ops.append(
                Op(
                    label=label,
                    call=lambda game=game, config=config: gg.run_session(game, config),
                    check=_session_check(exact, config.rounds),
                    counters=lambda out: {"runner.rounds": out.rounds},
                    kind="session",
                    rounds=config.rounds,
                )
            )
            for _ in range(_REPLAYS_PER_SESSION):
                r = rng.randrange(config.rounds)
                ops.append(
                    Op(
                        label=f"{label}-replay",
                        call=lambda game=game, config=config, r=r: gg.replay_round(game, config, r),
                        check=_replay_check(game, config, r),
                        kind="replay",
                    )
                )
    rng.shuffle(ops)  # interleave replays with the bulk sessions
    return ops


def _session_check(exact: float, rounds: int):
    sigma = math.sqrt(exact * (1.0 - exact) / rounds)

    def check(stats) -> Problems:
        problems = []
        if abs(stats.estimate - exact) > 5.0 * sigma + EXACT_TOL:
            problems.append(("estimate", f"estimate {stats.estimate!r}, exact {exact!r}, 5 sigma {5 * sigma!r}"))
        plays = sum(c[0] for c in stats.per_input_counts.values())
        wins = sum(c[1] for c in stats.per_input_counts.values())
        if plays != rounds or stats.rounds != rounds:
            problems.append(("round-count", f"per-input plays sum to {plays}, rounds {rounds}"))
        if wins != stats.wins or stats.estimate != stats.wins / rounds:
            problems.append(("win-count", f"per-input wins {wins}, wins {stats.wins}"))
        return problems

    return check


def _replay_check(game, config, r):
    def check(record) -> Problems:
        problems = []
        again = gg.replay_round(game, config, r)
        if again != record:
            problems.append(("replay", f"round {r} replays differently"))
        if len(record.x) != game.n or record.verdict not in (0, 1):
            problems.append(("record", f"round {r}: x={record.x}, verdict={record.verdict}"))
        return problems

    return check


# -- cli-requests ----------------------------------------------------------------

_PROBABILITY_KEYS = (
    "omega_c", "omega_q_lower", "omega_c_used", "estimate",
    "classical_bound", "brute_force_value", "quantum_probe",
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``graphgame.cli.main(argv)`` in process: exit code and captured stdout."""
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _report(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def _cli_ops(rng: random.Random, workdir: Path) -> list[Op]:
    specdir = workdir / "specs"
    specdir.mkdir(parents=True, exist_ok=True)
    fixtures: dict[str, tuple[Path, gg.GraphicGame]] = {}
    for name, build in sorted(games.FIXTURES.items()):
        path = specdir / f"{name}.game"
        path.write_text(ggio.serialize_game(build()))
        fixtures[name] = (path, ggio.parse_game(path.read_text()))

    def det_strategy_file(name: str, game: gg.GraphicGame) -> Path:
        signs = {(i, x, v): 1 for i in game.players for x in (0, 1) for v in game.owned(i, x)}
        path = specdir / f"{name}.strategy"
        path.write_text(ggio.serialize_strategy(gg.DeterministicStrategy(signs=signs)))
        return path

    requests: list[tuple[str, list[str], gg.GraphicGame, int, str]] = []  # label, argv, game, exit, kind
    for name, (path, game) in fixtures.items():
        consistency = isinstance(game.payoff, gg.ConsistencyPayoff)
        requests.append((f"validate {name}", ["validate", str(path)], game, 0, "validate"))
        requests.append((f"classify {name}", ["classify", str(path)], game, 0 if consistency else 6, "classify"))
        requests.append(
            (f"value {name}", ["value", str(path), "--classical"], game, 0 if consistency else 6, "value")
        )
        requests.append(
            (f"gyni {name}", ["gyni", str(path), "--restarts", "2", "--seed", "0"],
             game, 6 if consistency else 0, "gyni")
        )
    # Fixed optimizer seeds, as in quantum-optimize: the start angles set the cost.
    for name in ("chsh", "star3", "shared3", "cube3"):
        path, game = fixtures[name]
        argv = ["value", str(path), "--classical", "--quantum", "--restarts", "1", "--seed", "0"]
        requests.append((f"value-quantum {name}", argv, game, 0, "value"))

    chsh_path, chsh = fixtures["chsh"]
    opts = gg.OptimizeOptions(restarts=1, seed=rng.getrandbits(16), allow_multiway=True)
    qfile = specdir / "chsh-quantum.strategy"
    qfile.write_text(ggio.serialize_strategy(gg.optimize_quantum(chsh, opts).strategy))
    star3_path, star3 = fixtures["star3"]
    for path, game, strategy in ((chsh_path, chsh, qfile), (star3_path, star3, det_strategy_file("star3", star3))):
        argv = ["simulate", str(path), "--strategy", str(strategy), "--rounds", "200", "--seed", str(rng.getrandbits(16))]
        requests.append((f"simulate {path.stem}", argv, game, 0, "simulate"))

    # Seeded invalid specs: every command must refuse them with exit 2.
    p_bad = round(rng.uniform(1.05, 1.95), 6) if rng.random() < 0.5 else round(rng.uniform(-0.95, -0.05), 6)
    overlap = games.chain_game(_jitter(rng, 0.5))
    owned = dict(overlap.assignments.owned)
    owned[(2, 1)] = owned[(2, 1)] | {rng.choice(sorted(owned[(1, 1)]))}
    invalid = {
        "bad-prior": games.star_game(3, p_bad),
        "overlap": gg.GraphicGame(overlap.graph, overlap.n, overlap.m, gg.AssignmentMap(owned),
                                  overlap.distribution, overlap.payoff),
        "bad-prior-target": games.gyni_game(3, gg.IIDDistribution(p_bad)),
    }
    for name, built in invalid.items():
        path = specdir / f"{name}.game"
        path.write_text(ggio.serialize_game(built))
        game = ggio.parse_game(path.read_text())
        if not gg.validate_game(game):
            raise RuntimeError(f"generated spec {name!r} was meant to be invalid")
        requests.append((f"validate {name}", ["validate", str(path)], game, 2, "validate"))
        if isinstance(game.payoff, gg.TargetPayoff):
            argv = ["gyni", str(path), "--restarts", "2", "--seed", "0"]
            requests.append((f"gyni {name}", argv, game, 2, "gyni"))
            continue
        requests.append((f"classify {name}", ["classify", str(path)], game, 2, "classify"))
        requests.append((f"value {name}", ["value", str(path), "--classical"], game, 2, "value"))
        argv = ["simulate", str(path), "--strategy", str(det_strategy_file(name, game)), "--rounds", "200",
                "--seed", str(rng.getrandbits(16))]
        requests.append((f"simulate {name}", argv, game, 2, "simulate"))

    ops = [
        Op(
            label=label,
            call=lambda argv=argv: run_cli(argv),
            check=_cli_check(argv, game, expected, kind),
            counters=lambda out: {f"cli.exit_{out[0]}": 1},
        )
        for label, argv, game, expected, kind in requests
    ]
    return ops


def _cli_reference(argv: list[str], game: gg.GraphicGame, kind: str) -> dict[str, str]:
    """The report numbers the library gives for the same request."""
    fmt = ggio.fmt_float
    opt = {argv[k]: argv[k + 1] for k in range(2, len(argv) - 1) if argv[k].startswith("--")}
    if kind == "validate":
        return {"violations": "0"}
    if kind == "classify":
        result = gg.classify(game)
        return {"verdict": result.verdict, "omega_c_used": fmt(result.classical_value_used)}
    if kind == "value":
        ref = {}
        omega_c = gg.classical_value(game)[0]
        ref["omega_c"] = fmt(omega_c)
        if "--quantum" in argv:
            opts = gg.OptimizeOptions(restarts=int(opt["--restarts"]), seed=int(opt["--seed"]), allow_multiway=True)
            ref["omega_q_lower"] = fmt(gg.optimize_quantum(game, opts).value)
        ref["verdict"] = gg.classify(game, omega_c=omega_c).verdict
        return ref
    if kind == "gyni":
        opts = gg.OptimizeOptions(restarts=int(opt["--restarts"]), seed=int(opt["--seed"]))
        return {
            "injective": "true" if gg.check_injective(game.payoff.targets, game.n) else "false",
            "classical_bound": fmt(gg.gyni_classical_bound(game.distribution, game.n)),
            "brute_force_value": fmt(gg.target_classical_value(game)),
            "quantum_probe": fmt(gg.target_quantum_probe(game, opts)),
        }
    strategy = ggio.parse_strategy_file(opt["--strategy"])
    stats = gg.run_session(game, gg.SessionConfig(int(opt["--rounds"]), int(opt["--seed"]), strategy))
    return {"wins": str(stats.wins), "estimate": fmt(stats.estimate)}


def _cli_check(argv: list[str], game: gg.GraphicGame, expected: int, kind: str):
    reference: dict[str, str] = {}

    def check(out) -> Problems:
        code, text = out
        problems = []
        if code != expected:
            defect = INVALID_SPEC_ACCEPTED if expected == 2 and kind != "validate" else "exit-code"
            problems.append((defect, f"{argv[0]} exit {code}, want {expected}"))
        for problem in ggio.validate_report(text):
            problems.append(("report-schema", problem))
        report = _report(text)
        if kind == "validate" and code == expected == 2:
            want = str(len(gg.validate_game(game)))
            if report.get("violations") != want:
                problems.append(("library-mismatch", f"violations: {report.get('violations')!r}, library {want!r}"))
        if code != 0 or expected != 0:
            return problems
        for key in _PROBABILITY_KEYS:
            if key in report and report[key] != "unavailable" and not _in_unit_interval(float(report[key])):
                problems.append(("value-range", f"{key}: {report[key]}"))
        if not reference:
            reference.update(_cli_reference(argv, game, kind))
        for key, want in reference.items():
            if report.get(key) != want:
                problems.append(("library-mismatch", f"{key}: {report.get(key)!r}, library {want!r}"))
        if kind == "value" and "omega_q_lower" in report:
            if float(report["omega_q_lower"]) < float(report["omega_c"]) - EXACT_TOL:
                problems.append(
                    (QUANTUM_BELOW_CLASSICAL, f"omega_q_lower {report['omega_q_lower']} < omega_c {report['omega_c']}")
                )
        return problems

    return check


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """One pass of the named workload, generated from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "classical-search":
        return _classical_ops(rng)
    if name == "quantum-optimize":
        return _quantum_ops(rng)
    if name == "referee-sessions":
        return _session_ops(rng)
    if name == "cli-requests":
        return _cli_ops(rng, workdir)
    raise ValueError(f"unknown workload {name!r}")
