import json
import math
from importlib import resources

import pytest

from graphgame import build_strategy, classical_value
from graphgame import games, io


def fixture_text(name: str) -> str:
    return resources.files("graphgame").joinpath(f"fixtures/{name}.game").read_text()


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

    def test_bad_sign_rejected(self):
        with pytest.raises(io.StrategyFileError):
            io.parse_strategy(
                json.dumps(
                    {
                        "kind": "deterministic",
                        "signs": [{"player": 1, "input": 0, "vertex": "v1", "sign": 3}],
                    }
                )
            )

    @pytest.mark.parametrize("value", ["1" + "0" * 400, '"abc"', '"0.5"'])
    def test_angles_must_be_floats(self, value):
        strategy, _ = build_strategy(games.chsh_game())
        doc = json.loads(io.serialize_strategy(strategy))
        doc["angles"][0]["angle"] = "@"
        with pytest.raises(io.StrategyFileError, match="angle of"):
            io.parse_strategy(json.dumps(doc).replace('"@"', value))

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

    def test_float_formatting_is_precise(self):
        x = 0.8535533905932737
        assert float(io.fmt_float(x)) == x
