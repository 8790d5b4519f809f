import argparse
import contextlib
import io as stdio
import json
import time
from importlib import resources

import pytest

from graphgame import (
    ConsistencyPayoff,
    DeterministicStrategy,
    IIDDistribution,
    OptimizeOptions,
    build_strategy,
    classical_value,
    optimize_quantum,
)
from graphgame import cli, games
from graphgame import io as ggio

from _oracles import many_pairs_target_game, response_search_value


def fixture_path(name: str) -> str:
    return str(resources.files("graphgame").joinpath(f"fixtures/{name}.game"))


def run(*argv):
    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def report_dict(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, value = line.split(": ", 1)
        out[key] = value
    return out


class TestValidate:
    def test_bundled_fixture_is_valid(self):
        code, text = run("validate", fixture_path("chsh"))
        assert code == 0
        assert ggio.validate_report(text) == []
        assert report_dict(text)["status"] == "ok"

    def test_invariant_breach_exits_2(self, tmp_path):
        doc = json.loads(resources.files("graphgame").joinpath("fixtures/chsh.game").read_text())
        doc["m"] = 2  # m must stay below n
        bad = tmp_path / "bad_m.game"
        bad.write_text(json.dumps(doc))
        code, text = run("validate", str(bad))
        assert code == 2
        assert "bad-m" in text

    @pytest.mark.parametrize("command", ["classify", "value", "simulate", "gyni"])
    def test_every_command_refuses_invalid_spec(self, command, tmp_path):
        if command == "gyni":
            game = games.gyni_game(3, IIDDistribution(1.7))
        else:
            game = games.star_game(3, 1.7)
        spec = tmp_path / "bad_prior.game"
        spec.write_text(ggio.serialize_game(game))
        argv = [command, str(spec)]
        if command == "simulate":
            signs = {(i, x, v): 1 for i in game.players for x in (0, 1) for v in game.owned(i, x)}
            strategy_file = tmp_path / "plus.strategy"
            strategy_file.write_text(ggio.serialize_strategy(DeterministicStrategy(signs=signs)))
            argv += ["--strategy", str(strategy_file)]
        code, text = run(*argv)
        assert code == 2
        assert ggio.validate_report(text) == []
        assert report_dict(text)["status"] == "invalid"
        # Everything after the command line matches what validate reports.
        _, validate_text = run("validate", str(spec))
        assert text.splitlines()[1:] == validate_text.splitlines()[1:]

    def test_nan_joint_prior_is_invalid(self, tmp_path):
        doc = json.loads(resources.files("graphgame").joinpath("fixtures/chsh.game").read_text())
        doc["distribution"] = {"kind": "joint", "table": {"00": 0.5, "01": 0.5, "10": 0.0, "11": "NaN"}}
        spec = tmp_path / "nan_prior.game"
        spec.write_text(json.dumps(doc).replace('"NaN"', "NaN"))
        code, text = run("value", str(spec))
        assert code == 2
        assert report_dict(text)["status"] == "invalid"
        assert "bad-distribution" in text

    @pytest.mark.parametrize("command", ["validate", "value", "simulate"])
    def test_huge_probability_exits_3(self, command, tmp_path):
        doc = json.loads(resources.files("graphgame").joinpath("fixtures/chsh.game").read_text())
        doc["distribution"]["p"] = "@"
        spec = tmp_path / "huge_p.game"
        spec.write_text(json.dumps(doc).replace('"@"', "1" + "0" * 400))
        argv = [command, str(spec)] + (["--strategy", "/no/such/file"] if command == "simulate" else [])
        code, text = run(*argv)
        assert code == 3
        assert ggio.validate_report(text) == []

    def test_duplicate_target_table_exits_3(self, tmp_path):
        spec = tmp_path / "two_tables.game"
        text = resources.files("graphgame").joinpath("fixtures/gyni3.game").read_text()
        spec.write_text(text.replace('"2": {', '"01": {', 1))
        code, text = run("gyni", str(spec))
        assert code == 3
        assert ggio.validate_report(text) == []
        assert "duplicate target table for player 1" in report_dict(text)["error"]

    def test_parse_failure_exits_3(self, tmp_path):
        bad = tmp_path / "broken.game"
        bad.write_text("{ not json")
        code, text = run("validate", str(bad))
        assert code == 3
        assert "line" in report_dict(text)["error"]

    @pytest.mark.parametrize("value", ["0.0", "true"])
    def test_non_integer_input_exits_3(self, value, tmp_path):
        doc = json.loads(resources.files("graphgame").joinpath("fixtures/chsh.game").read_text())
        doc["assignments"][0]["input"] = "@"
        spec = tmp_path / "float_input.game"
        spec.write_text(json.dumps(doc).replace('"@"', value))
        code, text = run("validate", str(spec))
        assert code == 3
        assert ggio.validate_report(text) == []
        assert report_dict(text)["error"] == "parse error: assignment input must be 0 or 1"

    def test_non_utf8_spec_exits_3(self, tmp_path):
        raw = resources.files("graphgame").joinpath("fixtures/chsh.game").read_bytes()
        spec = tmp_path / "latin.game"
        spec.write_bytes(raw.replace(b'"v1"', b'"v\xff"'))
        code, text = run("validate", str(spec))
        assert code == 3
        assert ggio.validate_report(text) == []
        assert report_dict(text)["error"].startswith("parse error: not UTF-8 text")


class TestPipeline:
    @pytest.mark.parametrize("command", ["validate", "classify", "value", "simulate", "gyni"])
    def test_missing_spec_exits_3(self, command, tmp_path):
        argv = [command, str(tmp_path / "absent.game")]
        argv += ["--strategy", str(tmp_path / "absent.strategy")] if command == "simulate" else []
        code, text = run(*argv)
        report = report_dict(text)
        assert code == 3
        assert ggio.validate_report(text) == []
        assert report["status"] == "error"
        assert report["error"] == f"no such file: {argv[1]}"
        assert "game_digest" not in report

    @pytest.mark.parametrize("command", ["validate", "classify", "value", "simulate", "gyni"])
    def test_unreadable_spec_exits_3(self, command, tmp_path):
        argv = [command, str(tmp_path)]
        argv += ["--strategy", str(tmp_path / "absent.strategy")] if command == "simulate" else []
        code, text = run(*argv)
        report = report_dict(text)
        assert code == 3
        assert ggio.validate_report(text) == []
        assert report["status"] == "error"
        assert report["error"].startswith("parse error: cannot read file: ")
        assert "game_digest" not in report


@pytest.mark.parametrize(
    "name", sorted(n for n, b in games.FIXTURES.items() if isinstance(b().payoff, ConsistencyPayoff))
)
def test_compact_strategy_is_the_strategy_file_on_one_line(name):
    game = games.FIXTURES[name]()
    _, witness = classical_value(game)
    optimized = optimize_quantum(game, OptimizeOptions(restarts=1, allow_multiway=True)).strategy
    for strategy in (witness, optimized):
        one_line = json.dumps(json.loads(ggio.serialize_strategy(strategy)), sort_keys=True)
        assert cli._compact(strategy) == one_line


def untimed(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("timing.")]


class TestSharedParser:
    def test_main_calls_reuse_one_parser(self, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        run("validate", fixture_path("chsh"))
        run("classify", fixture_path("star3"))
        assert len(parsers) == 2
        assert parsers[0] is parsers[1]

    def test_options_do_not_leak_into_the_next_request(self):
        code, text = run("value", fixture_path("chsh"), "--quantum", "--restarts", "3")
        assert (code, report_dict(text)["restarts_used"]) == (0, "3")
        code, text = run("value", fixture_path("chsh"), "--quantum")
        assert (code, report_dict(text)["restarts_used"]) == (0, "20")

    def test_usage_error_leaves_the_parser_usable(self):
        argv = ["value", fixture_path("chsh"), "--classical", "--quantum", "--restarts", "2"]
        cli._shared_parser.cache_clear()
        code, first = run(*argv)  # the process's first request builds the parser
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["value", fixture_path("chsh"), "--quantum", "--restarts", "0"])
        assert exc.value.code == 2
        code, text = run(*argv)
        assert code == 0
        assert untimed(text) == untimed(first)


class TestClassify:
    def test_star3(self):
        code, text = run("classify", fixture_path("star3"))
        report = report_dict(text)
        assert code == 0
        assert ggio.validate_report(text) == []
        assert report["verdict"] == "QuantumAdvantage"
        assert report["index.1"] == "2"
        assert float(report["omega_c_used"]) == 0.625

    def test_trivial(self):
        code, text = run("classify", fixture_path("trivial"))
        assert code == 0
        assert report_dict(text)["verdict"] == "Trivial"

    def test_cube3(self):
        code, text = run("classify", fixture_path("cube3"))
        report = report_dict(text)
        assert code == 0
        assert report["verdict"] == "NoQuantumAdvantage"
        assert report["index.1"] == "3"

    def test_budget_exhaustion_is_soft(self):
        code, text = run("classify", fixture_path("star3"), "--budget", "1")
        report = report_dict(text)
        assert code == 0
        assert report["verdict"] == "Unknown"
        assert report["omega_c_used"] == "unavailable"

    def test_semantics_flag(self):
        code, text = run("classify", fixture_path("shared3"), "--semantics", "pairwise-clique")
        assert code == 0
        assert report_dict(text)["semantics"] == "pairwise-clique"

    def test_target_game_rejected(self):
        code, _ = run("classify", fixture_path("gyni3"))
        assert code == 6


class TestValue:
    def test_classical_chsh(self):
        code, text = run("value", fixture_path("chsh"), "--classical")
        report = report_dict(text)
        assert code == 0
        assert ggio.validate_report(text) == []
        assert float(report["omega_c"]) == 0.75
        assert report["verdict"] == "QuantumAdvantage"
        json.loads(report["omega_c_witness"])

    def test_quantum_chsh_bound(self):
        code, text = run(
            "value", fixture_path("chsh"), "--quantum", "--restarts", "20", "--seed", "0"
        )
        report = report_dict(text)
        assert code == 0
        assert float(report["omega_q_lower"]) >= 0.8525

    def test_quantum_shared3_stays_classical(self):
        code, text = run(
            "value", fixture_path("shared3"), "--quantum", "--restarts", "5", "--seed", "1"
        )
        report = report_dict(text)
        assert code == 0
        assert float(report["omega_q_lower"]) <= 0.6260

    def test_budget_exceeded_exits_4(self):
        code, text = run("value", fixture_path("cube3"), "--classical", "--budget", "100")
        report = report_dict(text)
        assert code == 4
        assert int(report["space_size"]) > 100

    def test_both_values_report_advantage_flag(self):
        code, text = run(
            "value",
            fixture_path("chsh"),
            "--classical",
            "--quantum",
            "--restarts",
            "8",
            "--seed",
            "1",
        )
        report = report_dict(text)
        assert code == 0
        assert report["advantage_observed"] == "true"
        assert float(report["omega_q_lower"]) > float(report["omega_c"])

    def test_target_game_exits_6(self):
        code, text = run("value", fixture_path("gyni3"), "--quantum")
        report = report_dict(text)
        assert code == 6
        assert ggio.validate_report(text) == []
        assert list(report) == ["command", "spec", "game_digest", "status", "error"]
        assert report["error"] == "value requires a consistency-mode game (see the gyni command)"

    @pytest.mark.parametrize(
        "argv",
        [
            ["value", "chsh", "--quantum", "--restarts", "0"],
            ["value", "chsh", "--quantum", "--restarts", "-3"],
            ["value", "chsh", "--quantum", "--tolerance", "nan"],
            ["value", "chsh", "--quantum", "--tolerance", "-1e-9"],
            ["value", "chsh", "--quantum", "--tolerance", "inf"],
            ["gyni", "gyni3", "--restarts", "0"],
            ["simulate", "chsh", "--strategy", "s.json", "--rounds", "0"],
            ["simulate", "chsh", "--strategy", "s.json", "--rounds", "-3"],
            ["value", "chsh", "--classical", "--budget", "-5"],
            ["value", "chsh", "--quantum", "--pair-budget", "-1"],
            ["classify", "chsh", "--budget", "-1"],
            ["gyni", "gyni3", "--budget", "-1"],
        ],
        ids=[
            "restarts-0", "restarts-neg", "tol-nan", "tol-neg", "tol-inf", "gyni-restarts-0",
            "rounds-0", "rounds-neg", "budget-neg", "pair-budget-neg", "classify-budget-neg",
            "gyni-budget-neg",
        ],
    )
    def test_bad_optimizer_arguments_are_usage_errors(self, argv, capsys):
        command, name, *rest = argv
        with pytest.raises(SystemExit) as exc:
            cli.main([command, fixture_path(name), *rest])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["value", "chsh", "--classical", "--budget", "0"], 4),
        (["value", "chsh", "--quantum", "--pair-budget", "0"], 4),
        (["classify", "chsh", "--budget", "0"], 0),
    ],
    ids=["budget-0", "pair-budget-0", "classify-budget-0"],
)
def test_zero_budget_is_legal(argv, code):
    command, name, *rest = argv
    got, text = run(command, fixture_path(name), *rest)
    assert got == code
    if code == 4:
        assert report_dict(text)["budget"] == "0"


class TestSimulate:
    def test_session_report(self, tmp_path):
        _, witness = classical_value(games.chsh_game())
        strategy_file = tmp_path / "chsh.strategy"
        strategy_file.write_text(ggio.serialize_strategy(witness))
        code, text = run(
            "simulate",
            fixture_path("chsh"),
            "--strategy",
            str(strategy_file),
            "--rounds",
            "4000",
            "--seed",
            "7",
        )
        report = report_dict(text)
        assert code == 0
        assert ggio.validate_report(text) == []
        assert abs(float(report["estimate"]) - 0.75) < 0.05
        assert int(report["rounds"]) == 4000
        assert float(report["timing.simulate_ms"]) >= 0.0

    @pytest.mark.parametrize("angle", ["NaN", "Infinity", "1" + "0" * 400, '"abc"'])
    def test_bad_angle_exits_5(self, angle, tmp_path):
        strategy, _ = build_strategy(games.chsh_game())
        doc = json.loads(ggio.serialize_strategy(strategy))
        doc["angles"][0]["angle"] = "@"
        strategy_file = tmp_path / "bad_angle.strategy"
        strategy_file.write_text(json.dumps(doc).replace('"@"', angle))
        code, text = run("simulate", fixture_path("chsh"), "--strategy", str(strategy_file))
        assert code == 5
        assert ggio.validate_report(text) == []
        assert "timing.simulate_ms" not in report_dict(text)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("signs", 5),
            ("angles", None),
            ("refs", 5),
            ("player", [1]),
            ("vertex", ["v"]),
            ("input", 0.0),
            ("input", True),
            ("sign", True),
            ("sign", -1.0),
        ],
    )
    def test_malformed_strategy_file_exits_5(self, field, value, tmp_path):
        if field == "signs":
            doc = {"kind": "deterministic", "signs": value}
        else:
            strategy, _ = build_strategy(games.chsh_game())
            doc = json.loads(ggio.serialize_strategy(strategy))
            if field in doc:
                doc[field] = value
            else:
                doc["wiring"][0][field] = value
        strategy_file = tmp_path / "malformed.strategy"
        strategy_file.write_text(json.dumps(doc))
        code, text = run("simulate", fixture_path("chsh"), "--strategy", str(strategy_file))
        assert code == 5
        assert ggio.validate_report(text) == []
        assert report_dict(text)["error"].startswith("bad strategy file: ")

    def test_non_utf8_strategy_exits_5(self, tmp_path):
        _, witness = classical_value(games.chsh_game())
        strategy_file = tmp_path / "latin.strategy"
        strategy_file.write_bytes(ggio.serialize_strategy(witness).encode().replace(b'"v1"', b'"v\xff"'))
        code, text = run("simulate", fixture_path("chsh"), "--strategy", str(strategy_file))
        assert code == 5
        assert ggio.validate_report(text) == []
        assert report_dict(text)["error"].startswith("bad strategy file: not UTF-8 text")

    def test_duplicate_strategy_entry_exits_5(self, tmp_path):
        _, witness = classical_value(games.chsh_game())
        doc = json.loads(ggio.serialize_strategy(witness))
        doc["signs"].append({**doc["signs"][0], "sign": -doc["signs"][0]["sign"]})
        strategy_file = tmp_path / "twice.strategy"
        strategy_file.write_text(json.dumps(doc))
        code, text = run("simulate", fixture_path("chsh"), "--strategy", str(strategy_file))
        assert code == 5
        assert report_dict(text)["error"].startswith("bad strategy file: duplicate sign entry")

    def test_missing_strategy_exits_5(self):
        code, _ = run("simulate", fixture_path("chsh"), "--strategy", "/no/such/file")
        assert code == 5

    def test_unreadable_strategy_exits_5(self, tmp_path):
        code, text = run("simulate", fixture_path("chsh"), "--strategy", str(tmp_path))
        assert code == 5
        assert ggio.validate_report(text) == []
        assert report_dict(text)["error"].startswith("bad strategy file: cannot read file: ")

    def test_mismatched_strategy_exits_5(self, tmp_path):
        _, witness = classical_value(games.star_game(3))
        strategy_file = tmp_path / "star.strategy"
        strategy_file.write_text(ggio.serialize_strategy(witness))
        code, _ = run("simulate", fixture_path("chsh"), "--strategy", str(strategy_file))
        assert code == 5

    def test_target_game_exits_6(self):
        code, text = run("simulate", fixture_path("gyni3"), "--strategy", "/no/such/file")
        assert code == 6
        assert ggio.validate_report(text) == []
        assert report_dict(text)["status"] == "error"


class TestGyni:
    def test_gyni3_report(self):
        code, text = run("gyni", fixture_path("gyni3"))
        report = report_dict(text)
        assert code == 0
        assert ggio.validate_report(text) == []
        assert report["injective"] == "true"
        assert float(report["classical_bound"]) == 0.25
        assert float(report["brute_force_value"]) == 0.25
        assert float(report["quantum_probe"]) <= 0.25 + 1e-3

    def test_reports_its_timings(self):
        code, text = run("gyni", fixture_path("gyni3"))
        report = report_dict(text)
        assert code == 0
        assert ggio.validate_report(text) == []
        assert float(report["timing.classical_ms"]) >= 0.0
        assert float(report["timing.probe_ms"]) >= 0.0

    def test_many_pairs_spec(self, tmp_path):
        game = many_pairs_target_game()
        spec = tmp_path / "many_pairs.game"
        spec.write_text(ggio.serialize_game(game))
        t0 = time.perf_counter()
        code, text = run("gyni", str(spec))
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        assert ggio.validate_report(text) == []
        probe = float(report_dict(text)["quantum_probe"])
        assert probe == pytest.approx(response_search_value(game), abs=1e-12)

    def test_example2_is_injective(self):
        code, text = run("gyni", fixture_path("example2"))
        assert code == 0
        assert report_dict(text)["injective"] == "true"

    def test_constant_targets_not_injective(self):
        code, text = run("gyni", fixture_path("constant"))
        assert code == 0
        assert report_dict(text)["injective"] == "false"

    def test_consistency_game_exits_6(self):
        code, _ = run("gyni", fixture_path("chsh"))
        assert code == 6
