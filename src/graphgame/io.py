"""File formats: game specs, strategy files, and the report text format.

Game specs are JSON with exactly these keys:

    vertices      list of strings
    n, m          ints
    assignments   list of {"player": int, "input": 0|1, "vertices": [str]};
                  omitted (player, input) entries mean the empty set
    distribution  {"kind": "iid", "p": float} or
                  {"kind": "joint", "table": {bitstring: float}}
    payoff        {"mode": "consistency"} or
                  {"mode": "target", "tables": {player: {bitstring: int}}}

Parsing is strict: unknown keys are rejected.  Serialization is canonical
(sorted keys, sorted entries, two-space indent) so parse -> serialize ->
parse is the identity and content digests are stable.

Strategy files are JSON too: {"kind": "deterministic", "signs": [...]} or
{"kind": "quantum", "angles": [...], "wiring": [...]}.

Reports are plain text, one ``key: value`` per line, floats printed with 17
significant digits.  The shipped ``report_schema.txt`` lists the allowed
keys and value shapes; ``validate_report`` checks a report against it.
"""

from __future__ import annotations

import hashlib
import json
import re
from importlib import resources
from typing import Mapping

from .classical import DeterministicStrategy
from .model import (
    AssignmentMap,
    ConsistencyPayoff,
    Graph,
    GraphicGame,
    GraphGameError,
    IIDDistribution,
    JointDistribution,
    TargetFunction,
    TargetPayoff,
)
from .quantum import OutputExpr, QuantumStrategy


class GameSpecError(GraphGameError):
    """A game spec file cannot be parsed; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class StrategyFileError(GraphGameError):
    """A strategy file cannot be parsed."""


def _load_json(text: str, error_cls) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if error_cls is GameSpecError:
            raise GameSpecError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
        raise error_cls(f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})")


def _require_keys(obj: Mapping, required: set[str], optional: set[str], where: str, error_cls) -> None:
    if not isinstance(obj, dict):
        raise error_cls(f"{where} must be an object")
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise error_cls(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise error_cls(f"{where}: missing keys {sorted(missing)}")


def _number(value: object, what: str, error_cls) -> float:
    """A JSON number as a float; ``error_cls`` for anything else, or one too large for a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise error_cls(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise error_cls(f"{what} is too large for a float") from None


def parse_game(text: str) -> GraphicGame:
    data = _load_json(text, GameSpecError)
    _require_keys(
        data,
        {"vertices", "n", "m", "assignments", "distribution", "payoff"},
        set(),
        "game spec",
        GameSpecError,
    )
    if not isinstance(data["vertices"], list) or not all(
        isinstance(v, str) for v in data["vertices"]
    ):
        raise GameSpecError("vertices must be a list of strings")
    for field in ("n", "m"):
        if not isinstance(data[field], int) or isinstance(data[field], bool):
            raise GameSpecError(f"{field} must be an integer")

    owned: dict[tuple[int, int], list[str]] = {}
    if not isinstance(data["assignments"], list):
        raise GameSpecError("assignments must be a list")
    for entry in data["assignments"]:
        _require_keys(entry, {"player", "input", "vertices"}, set(), "assignment entry", GameSpecError)
        i, x = entry["player"], entry["input"]
        if not isinstance(i, int) or isinstance(i, bool):
            raise GameSpecError("assignment player must be an integer")
        if x not in (0, 1):
            raise GameSpecError("assignment input must be 0 or 1")
        if not isinstance(entry["vertices"], list) or not all(
            isinstance(v, str) for v in entry["vertices"]
        ):
            raise GameSpecError("assignment vertices must be a list of strings")
        if (i, x) in owned:
            raise GameSpecError(f"duplicate assignment entry for player {i}, input {x}")
        owned[(i, x)] = list(entry["vertices"])

    dist_obj = data["distribution"]
    _require_keys(dist_obj, {"kind"}, {"p", "table"}, "distribution", GameSpecError)
    if dist_obj["kind"] == "iid":
        _require_keys(dist_obj, {"kind", "p"}, set(), "iid distribution", GameSpecError)
        distribution = IIDDistribution(_number(dist_obj["p"], "iid p", GameSpecError))
    elif dist_obj["kind"] == "joint":
        _require_keys(dist_obj, {"kind", "table"}, set(), "joint distribution", GameSpecError)
        table = dist_obj["table"]
        if not isinstance(table, dict):
            raise GameSpecError("joint table must be an object")
        distribution = JointDistribution(
            {k: _number(v, f"joint probability for {k!r}", GameSpecError) for k, v in table.items()}
        )
    else:
        raise GameSpecError(f"unknown distribution kind {dist_obj['kind']!r}")

    payoff_obj = data["payoff"]
    _require_keys(payoff_obj, {"mode"}, {"tables"}, "payoff", GameSpecError)
    if payoff_obj["mode"] == "consistency":
        _require_keys(payoff_obj, {"mode"}, set(), "consistency payoff", GameSpecError)
        payoff = ConsistencyPayoff()
    elif payoff_obj["mode"] == "target":
        _require_keys(payoff_obj, {"mode", "tables"}, set(), "target payoff", GameSpecError)
        tables_obj = payoff_obj["tables"]
        if not isinstance(tables_obj, dict):
            raise GameSpecError("target tables must be an object")
        tables: dict[int, dict[str, int]] = {}
        for player_key, table in tables_obj.items():
            try:
                player = int(player_key)
            except ValueError:
                raise GameSpecError(f"target table player key {player_key!r} is not an integer")
            if not isinstance(table, dict):
                raise GameSpecError(f"target table for player {player} must be an object")
            inner = {}
            for bits, value in table.items():
                if not isinstance(value, int) or isinstance(value, bool):
                    raise GameSpecError(
                        f"target value for player {player} at {bits!r} must be an integer"
                    )
                inner[bits] = value
            tables[player] = inner
        payoff = TargetPayoff(TargetFunction(tables))
    else:
        raise GameSpecError(f"unknown payoff mode {payoff_obj['mode']!r}")

    return GraphicGame(
        graph=Graph(data["vertices"]),
        n=data["n"],
        m=data["m"],
        assignments=AssignmentMap(owned),
        distribution=distribution,
        payoff=payoff,
    )


def parse_game_file(path) -> GraphicGame:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read())


def serialize_game(game: GraphicGame) -> str:
    assignments = [
        {"player": i, "input": x, "vertices": sorted(verts)}
        for (i, x), verts in sorted(game.assignments.owned.items())
        if verts
    ]
    if isinstance(game.distribution, IIDDistribution):
        distribution = {"kind": "iid", "p": game.distribution.p}
    else:
        distribution = {
            "kind": "joint",
            "table": {k: v for k, v in sorted(game.distribution.table.items())},
        }
    if isinstance(game.payoff, ConsistencyPayoff):
        payoff: dict = {"mode": "consistency"}
    else:
        payoff = {
            "mode": "target",
            "tables": {
                str(i): {k: v for k, v in sorted(t.items())}
                for i, t in sorted(game.payoff.targets.tables.items())
            },
        }
    doc = {
        "vertices": list(game.graph.vertices),
        "n": game.n,
        "m": game.m,
        "assignments": assignments,
        "distribution": distribution,
        "payoff": payoff,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def game_digest(game: GraphicGame) -> str:
    return hashlib.sha256(serialize_game(game).encode("utf-8")).hexdigest()


def serialize_strategy(strategy) -> str:
    if isinstance(strategy, DeterministicStrategy):
        doc = {
            "kind": "deterministic",
            "signs": [
                {"player": i, "input": x, "vertex": v, "sign": s}
                for (i, x, v), s in sorted(strategy.signs.items())
            ],
        }
    elif isinstance(strategy, QuantumStrategy):
        doc = {
            "kind": "quantum",
            "angles": [
                {"player": i, "vertex": v, "input": x, "angle": a}
                for (i, v, x), a in sorted(strategy.angles.items())
            ],
            "wiring": [
                {
                    "player": i,
                    "input": x,
                    "vertex": v,
                    "sign": expr.sign,
                    "refs": list(expr.refs),
                }
                for (i, x, v), expr in sorted(strategy.wiring.items())
            ],
        }
    else:
        raise StrategyFileError(f"cannot serialize {type(strategy).__name__}")
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_strategy(text: str):
    data = _load_json(text, StrategyFileError)
    _require_keys(data, {"kind"}, {"signs", "angles", "wiring"}, "strategy", StrategyFileError)
    if data["kind"] == "deterministic":
        _require_keys(data, {"kind", "signs"}, set(), "deterministic strategy", StrategyFileError)
        signs = {}
        for entry in data["signs"]:
            _require_keys(
                entry, {"player", "input", "vertex", "sign"}, set(), "sign entry", StrategyFileError
            )
            if entry["sign"] not in (1, -1):
                raise StrategyFileError("signs must be +1 or -1")
            signs[(entry["player"], entry["input"], entry["vertex"])] = entry["sign"]
        return DeterministicStrategy(signs=signs)
    if data["kind"] == "quantum":
        _require_keys(data, {"kind", "angles", "wiring"}, set(), "quantum strategy", StrategyFileError)
        angles = {}
        for entry in data["angles"]:
            _require_keys(
                entry, {"player", "vertex", "input", "angle"}, set(), "angle entry", StrategyFileError
            )
            key = (entry["player"], entry["vertex"], entry["input"])
            angles[key] = _number(entry["angle"], f"angle of {key}", StrategyFileError)
        wiring = {}
        for entry in data["wiring"]:
            _require_keys(
                entry,
                {"player", "input", "vertex", "sign", "refs"},
                set(),
                "wiring entry",
                StrategyFileError,
            )
            if entry["sign"] not in (1, -1):
                raise StrategyFileError("wiring signs must be +1 or -1")
            wiring[(entry["player"], entry["input"], entry["vertex"])] = OutputExpr(
                entry["sign"], tuple(entry["refs"])
            )
        return QuantumStrategy(angles=angles, wiring=wiring)
    raise StrategyFileError(f"unknown strategy kind {data['kind']!r}")


def parse_strategy_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_strategy(fh.read())


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def render_report(pairs: list[tuple[str, str]]) -> str:
    return "".join(f"{k}: {v}\n" for k, v in pairs)


_SCHEMA_CACHE: list[tuple[re.Pattern, re.Pattern]] | None = None


def _schema() -> list[tuple[re.Pattern, re.Pattern]]:
    global _SCHEMA_CACHE
    if _SCHEMA_CACHE is None:
        rules = []
        text = resources.files("graphgame").joinpath("report_schema.txt").read_text()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key_pat, value_pat = line.split(None, 1)
            rules.append((re.compile(rf"^{key_pat}$"), re.compile(rf"^{value_pat}$")))
        _SCHEMA_CACHE = rules
    return _SCHEMA_CACHE


def validate_report(text: str) -> list[str]:
    """Schema-check a report; returns a list of problems, empty when clean."""
    problems = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if ": " not in line:
            problems.append(f"line {lineno}: not a 'key: value' pair")
            continue
        key, value = line.split(": ", 1)
        for key_pat, value_pat in _schema():
            if key_pat.match(key):
                if not value_pat.match(value):
                    problems.append(f"line {lineno}: value {value!r} invalid for key {key!r}")
                break
        else:
            problems.append(f"line {lineno}: unknown report key {key!r}")
    return problems
