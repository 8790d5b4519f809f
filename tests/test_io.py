import json
import math
from importlib import resources

import numpy as np
import pytest

from graphgame import build_strategy, classical_value, model
from graphgame import games, io
from graphgame.model import (
    AssignmentMap,
    ConsistencyPayoff,
    Graph,
    GraphicGame,
    IIDDistribution,
    JointDistribution,
    TargetFunction,
    TargetPayoff,
)

from _oracles import random_game, random_target_game


def fixture_text(name: str) -> str:
    return resources.files("graphgame").joinpath(f"fixtures/{name}.game").read_text()


_HOSTILE_IDS = ['say "hi"', "back\\slash", "ctl\x00\x1f\n\t", "caf\u00e9", "\u2603", "\ud800", "[]{},:", "", " "]
_ODD_NUMBERS = [0.5, math.nan, math.inf, -math.inf, 1, 0, -0.0, 1e-300, True]


def hostile_game(rng: np.random.Generator) -> GraphicGame:
    """A game, valid or not, built to stress the spec writer.

    Vertex ids need escapes or are non-ASCII; priors and table entries may be
    NaN, infinite, int- or bool-valued; vertex lists, joint tables and target
    tables may be empty; up to 11 players make target keys sort as strings.
    """

    def pick(seq, k):
        return [seq[j] for j in rng.permutation(len(seq))[:k]]

    def number():
        return _ODD_NUMBERS[int(rng.integers(len(_ODD_NUMBERS)))]

    vertices = pick(_HOSTILE_IDS, int(rng.integers(len(_HOSTILE_IDS) + 1)))
    n = int(rng.integers(1, 12))
    owned = {
        (i, x): pick(vertices, int(rng.integers(len(vertices) + 1)))
        for i in range(1, n + 1)
        for x in (0, 1)
        if rng.random() < 0.7
    }
    if rng.random() < 0.5:
        distribution = IIDDistribution(number())
    else:  # sparse, possibly empty
        bits = min(n, 4)
        distribution = JointDistribution(
            {format(k, f"0{bits}b"): number() for k in range(2**bits) if rng.random() < 0.5}
        )
    if rng.random() < 0.5:
        payoff = ConsistencyPayoff()
    else:
        values = [0, 1, 2**70, -3, True]
        tables = {
            i: {format(k, "03b"): values[int(rng.integers(len(values)))] for k in range(8) if rng.random() < 0.7}
            for i in range(1, n + 1)
            if rng.random() < 0.8
        }
        payoff = TargetPayoff(TargetFunction(tables))
    return GraphicGame(Graph(vertices), n, int(rng.integers(n + 1)), AssignmentMap(owned), distribution, payoff)


def generated_games() -> list[GraphicGame]:
    rng = np.random.default_rng(2024)
    out = [random_game(rng) for _ in range(100)] + [random_target_game(rng) for _ in range(100)]
    out += [hostile_game(rng) for _ in range(200)]
    out.append(GraphicGame(Graph([]), 2, 1, AssignmentMap({}), JointDistribution({}), TargetPayoff(TargetFunction({}))))
    return out


class TestGameRoundTrip:
    @pytest.mark.parametrize("name", sorted(games.FIXTURES))
    def test_parse_serialize_parse(self, name):
        g = games.FIXTURES[name]()
        text = io.serialize_game(g)
        again = io.parse_game(text)
        assert again == g
        assert io.serialize_game(again) == text

    @pytest.mark.parametrize("name", sorted(games.FIXTURES))
    def test_shipped_fixtures_match_builders(self, name):
        assert fixture_text(name) == io.serialize_game(games.FIXTURES[name]())

    def test_digest_is_stable(self):
        g = games.chsh_game()
        assert io.game_digest(g) == io.game_digest(io.parse_game(io.serialize_game(g)))
        assert len(io.game_digest(g)) == 64

    def test_writer_matches_indent_2_json(self):
        for k, game in enumerate([b() for _, b in sorted(games.FIXTURES.items())] + generated_games()):
            text = io.serialize_game(game)
            assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text, k
            assert json.loads(text)["vertices"] == list(game.graph.vertices), k

    def test_parse_reads_each_vertex_id_once(self, monkeypatch):
        calls = []
        real = model._vertex_id
        monkeypatch.setattr(model, "_vertex_id", lambda v: calls.append(v) or real(v))
        for name in sorted(games.FIXTURES):
            doc = json.loads(fixture_text(name))
            calls.clear()
            io.parse_game(fixture_text(name))
            occurrences = doc["vertices"] + [v for e in doc["assignments"] for v in e["vertices"]]
            assert sorted(calls) == sorted(occurrences), name


class TestStrictParsing:
    def test_unknown_top_level_key(self):
        doc = json.loads(fixture_text("chsh"))
        doc["comment"] = "nope"
        with pytest.raises(io.GameSpecError, match="unknown keys"):
            io.parse_game(json.dumps(doc))

    def test_unknown_nested_key(self):
        doc = json.loads(fixture_text("chsh"))
        doc["distribution"]["bias"] = 0.1
        with pytest.raises(io.GameSpecError):
            io.parse_game(json.dumps(doc))

    def test_duplicate_assignment_entry(self):
        doc = json.loads(fixture_text("chsh"))
        doc["assignments"].append(doc["assignments"][0])
        with pytest.raises(io.GameSpecError, match="duplicate"):
            io.parse_game(json.dumps(doc))

    def test_parse_error_carries_position(self):
        try:
            io.parse_game("{\n  broken")
        except io.GameSpecError as exc:
            assert exc.line == 2
            assert exc.column is not None
        else:
            raise AssertionError("expected GameSpecError")

    @pytest.mark.parametrize("value", ["0.0", "1.0", "true", "false", "2"])
    def test_assignment_input_must_be_an_integer_bit(self, value):
        doc = json.loads(fixture_text("chsh"))
        doc["assignments"][0]["input"] = "@"
        with pytest.raises(io.GameSpecError, match="assignment input must be 0 or 1"):
            io.parse_game(json.dumps(doc).replace('"@"', value))

    def test_omitted_assignments_mean_empty(self):
        doc = json.loads(fixture_text("chsh"))
        doc["assignments"] = [e for e in doc["assignments"] if e["player"] != 1]
        g = io.parse_game(json.dumps(doc))
        assert g.owned(1, 0) == frozenset()

    @pytest.mark.parametrize("value", ["1" + "0" * 400, '"0.5"', "true", "null"])
    def test_iid_p_must_be_a_float(self, value):
        doc = json.loads(fixture_text("chsh"))
        doc["distribution"]["p"] = "@"
        with pytest.raises(io.GameSpecError, match="iid p"):
            io.parse_game(json.dumps(doc).replace('"@"', value))

    @pytest.mark.parametrize("value", ["1" + "0" * 400, '"abc"'])
    def test_joint_entries_must_be_floats(self, value):
        doc = json.loads(fixture_text("chsh"))
        doc["distribution"] = {"kind": "joint", "table": {"00": 0.5, "01": 0.5, "10": 0.0, "11": "@"}}
        with pytest.raises(io.GameSpecError, match="joint probability for '11'"):
            io.parse_game(json.dumps(doc).replace('"@"', value))

    def test_duplicate_target_table(self):
        text = fixture_text("gyni3").replace('"2": {', '"01": {', 1)
        with pytest.raises(io.GameSpecError, match="duplicate target table for player 1"):
            io.parse_game(text)

    def test_target_values_must_be_integers(self):
        doc = json.loads(fixture_text("gyni3"))
        doc["payoff"]["tables"]["1"]["000"] = 0.5
        with pytest.raises(io.GameSpecError):
            io.parse_game(json.dumps(doc))


class TestStrategyFiles:
    def test_deterministic_round_trip(self):
        _, witness = classical_value(games.chsh_game())
        text = io.serialize_strategy(witness)
        again = io.parse_strategy(text)
        assert again.signs == witness.signs

    def test_quantum_round_trip(self):
        strategy, _ = build_strategy(games.star_game(3))
        strategy = strategy.with_angles(
            {k: (i + 1) * math.pi / 7 for i, k in enumerate(sorted(strategy.angles))}
        )
        text = io.serialize_strategy(strategy)
        again = io.parse_strategy(text)
        assert again.angles == strategy.angles
        assert again.wiring == strategy.wiring

    @pytest.mark.parametrize("field", ["signs", "wiring"])
    @pytest.mark.parametrize("value", ["3", "true", "-1.0", "1.0"])
    def test_bad_sign_rejected(self, field, value):
        if field == "signs":
            _, strategy = classical_value(games.chsh_game())
        else:
            strategy, _ = build_strategy(games.chsh_game())
        doc = json.loads(io.serialize_strategy(strategy))
        doc[field][0]["sign"] = "@"
        with pytest.raises(io.StrategyFileError, match="sign must be the integer 1 or -1"):
            io.parse_strategy(json.dumps(doc).replace('"@"', value))

    @pytest.mark.parametrize("field", ["signs", "angles", "wiring"])
    @pytest.mark.parametrize("value", ["0.0", "1.0", "true", "false"])
    def test_input_must_be_an_integer_bit(self, field, value):
        if field == "signs":
            _, strategy = classical_value(games.chsh_game())
        else:
            strategy, _ = build_strategy(games.chsh_game())
        doc = json.loads(io.serialize_strategy(strategy))
        doc[field][0]["input"] = "@"
        with pytest.raises(io.StrategyFileError, match="input must be 0 or 1"):
            io.parse_strategy(json.dumps(doc).replace('"@"', value))

    @pytest.mark.parametrize("value", ["1" + "0" * 400, '"abc"', '"0.5"'])
    def test_angles_must_be_floats(self, value):
        strategy, _ = build_strategy(games.chsh_game())
        doc = json.loads(io.serialize_strategy(strategy))
        doc["angles"][0]["angle"] = "@"
        with pytest.raises(io.StrategyFileError, match="angle of"):
            io.parse_strategy(json.dumps(doc).replace('"@"', value))

    @pytest.mark.parametrize(
        "field, where", [("signs", "sign entry"), ("angles", "angle entry"), ("wiring", "wiring entry")]
    )
    def test_duplicate_entry_rejected(self, field, where):
        if field == "signs":
            _, strategy = classical_value(games.chsh_game())
        else:
            strategy, _ = build_strategy(games.chsh_game())
        doc = json.loads(io.serialize_strategy(strategy))
        doc[field].append(doc[field][-1])
        with pytest.raises(io.StrategyFileError, match=f"duplicate {where} for player"):
            io.parse_strategy(json.dumps(doc))

    def test_unknown_kind_rejected(self):
        with pytest.raises(io.StrategyFileError):
            io.parse_strategy('{"kind": "telepathic"}')


class TestReportSchema:
    def test_accepts_valid_report(self):
        text = io.render_report(
            [
                ("command", "value"),
                ("spec", "x.game"),
                ("game_digest", "0" * 64),
                ("omega_c", io.fmt_float(0.75)),
                ("timing.classical_ms", io.fmt_float(1.25)),
            ]
        )
        assert io.validate_report(text) == []

    def test_rejects_unknown_key(self):
        assert io.validate_report("mystery: 1\n")

    def test_rejects_bad_value(self):
        assert io.validate_report("verdict: Maybe\n")

    def test_rejects_empty_report(self):
        assert io.validate_report("") == ["missing key 'command'", "missing key 'spec'"]

    def test_rejects_truncated_gyni_report(self):
        problems = io.validate_report("command: gyni\n")
        assert problems == ["missing key 'spec'", "missing key 'quantum_probe'"]

    @pytest.mark.parametrize(
        "status, lines, missing",
        [
            ("error", [], "'error'"),
            ("invalid", [], "'violations'"),
            ("ok", [], "'omega_c' or 'omega_q_lower'"),
            ("error", [("error", "over budget")], None),
            ("invalid", [("violations", "1")], None),
        ],
    )
    def test_required_keys_follow_the_status(self, status, lines, missing):
        pairs = [("command", "value"), ("spec", "x.game"), ("status", status), *lines]
        problems = io.validate_report(io.render_report(pairs))
        assert problems == ([f"missing key {missing}"] if missing else [])

    def test_float_formatting_is_precise(self):
        x = 0.8535533905932737
        assert float(io.fmt_float(x)) == x
