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

Parsing is strict: unknown keys and duplicate entries are rejected.
Serialization is canonical, so parse -> serialize -> parse is the identity
and content digests are stable.  The canonical text is exactly
``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` of the spec's
document, but ``serialize_game`` writes it directly, without building the
document: strings go through json's C escaper, numbers are spelled as json
spells them, and each list or object body is one ``str.join``.
``game_digest`` is the sha256 of those bytes.

Strategy files are JSON too: {"kind": "deterministic", "signs": [...]} or
{"kind": "quantum", "angles": [...], "wiring": [...]}.

Reports are plain text, one ``key: value`` per line, floats printed with 17
significant digits.  The shipped ``report_schema.txt`` lists the allowed
keys and value shapes and the keys each kind of report must hold;
``validate_report`` checks a report against it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
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
    is_sign,
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


def _is_bit(value: object) -> bool:
    """True for the JSON integers 0 and 1 only, not for ``0.0``, ``1.0``, ``false`` or ``true``."""
    return type(value) is int and value in (0, 1)


def _read_text(path, error_cls) -> str:
    """The text of the UTF-8 file at ``path``; ``error_cls`` when it cannot be
    read (a directory, say) or is not UTF-8, FileNotFoundError when it is missing."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error_cls(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise error_cls(f"cannot read file: {exc.strerror or exc}") from None


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
        if not _is_bit(x):
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
            if player in tables:
                raise GameSpecError(f"duplicate target table for player {player} (key {player_key!r})")
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
    return parse_game(_read_text(path, GameSpecError))


_INFINITIES = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _scalar(v) -> str:
    """A number or bool as ``json.dumps`` writes it: ``true``, ``1``, ``1.0``, ``NaN``, ``-Infinity``."""
    if v is True or v is False:
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if v != v:
        return "NaN"
    return _INFINITIES.get(v) or float.__repr__(v)


def _block(brackets: str, items, level: int) -> str:
    """JSON ``items`` inside ``brackets``, one per line, as ``indent=2`` lays them out at ``level``."""
    inner = "\n" + "  " * (level + 1)
    body = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{body}\n{'  ' * level}{brackets[1]}" if body else brackets


def _table(table: Mapping, level: int) -> str:
    """A ``{string: number}`` object, keys sorted."""
    return _block("{}", [f"{_quote(k)}: {_scalar(v)}" for k, v in sorted(table.items())], level)


def serialize_game(game: GraphicGame) -> str:
    """The canonical spec text: ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, written directly."""
    assignments = (
        _block(
            "{}",
            (
                f'"input": {_scalar(x)}',
                f'"player": {_scalar(i)}',
                '"vertices": ' + _block("[]", map(_quote, sorted(verts)), 3),
            ),
            2,
        )
        for (i, x), verts in sorted(game.assignments.owned.items())
        if verts
    )
    if isinstance(game.distribution, IIDDistribution):
        distribution = ('"kind": "iid"', f'"p": {_scalar(game.distribution.p)}')
    else:
        distribution = ('"kind": "joint"', '"table": ' + _table(game.distribution.table, 2))
    if isinstance(game.payoff, ConsistencyPayoff):
        payoff: tuple = ('"mode": "consistency"',)
    else:
        tables = sorted((str(i), t) for i, t in game.payoff.targets.tables.items())
        payoff = ('"mode": "target"', '"tables": ' + _block("{}", (f'"{i}": {_table(t, 3)}' for i, t in tables), 2))
    fields = (
        '"assignments": ' + _block("[]", assignments, 1),
        '"distribution": ' + _block("{}", distribution, 1),
        f'"m": {_scalar(game.m)}',
        f'"n": {_scalar(game.n)}',
        '"payoff": ' + _block("{}", payoff, 1),
        '"vertices": ' + _block("[]", map(_quote, game.graph.vertices), 1),
    )
    return _block("{}", fields, 0) + "\n"


def game_digest(game: GraphicGame) -> str:
    return hashlib.sha256(serialize_game(game).encode("utf-8")).hexdigest()


def _strategy_doc(strategy) -> dict:
    """The JSON document of a strategy file, before key sorting."""
    if isinstance(strategy, DeterministicStrategy):
        return {
            "kind": "deterministic",
            "signs": [
                {"player": i, "input": x, "vertex": v, "sign": s}
                for (i, x, v), s in sorted(strategy.signs.items())
            ],
        }
    if isinstance(strategy, QuantumStrategy):
        return {
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
    raise StrategyFileError(f"cannot serialize {type(strategy).__name__}")


def serialize_strategy(strategy) -> str:
    return json.dumps(_strategy_doc(strategy), sort_keys=True, indent=2) + "\n"


def _strategy_entries(data: Mapping, field: str, keys: set[str], where: str) -> list:
    """A strategy's ``field`` list, each entry checked like a spec's assignment entries."""
    entries = data[field]
    if not isinstance(entries, list):
        raise StrategyFileError(f"{field} must be a list")
    for entry in entries:
        _require_keys(entry, keys, set(), where, StrategyFileError)
        if not isinstance(entry["player"], int) or isinstance(entry["player"], bool):
            raise StrategyFileError(f"{where} player must be an integer")
        if not _is_bit(entry["input"]):
            raise StrategyFileError(f"{where} input must be 0 or 1")
        if not isinstance(entry["vertex"], str):
            raise StrategyFileError(f"{where} vertex must be a string")
        if "sign" in keys and not is_sign(entry["sign"]):
            raise StrategyFileError(f"{where} sign must be the integer 1 or -1")
    return entries


def _unique_key(seen: Mapping, entry: Mapping, fields: tuple[str, ...], where: str) -> tuple:
    """``entry``'s key, the values of ``fields``; a key already in ``seen`` is an error."""
    key = tuple(entry[f] for f in fields)
    if key in seen:
        named = ", ".join(f"{f} {entry[f]!r}" for f in fields)
        raise StrategyFileError(f"duplicate {where} for {named}")
    return key


def parse_strategy(text: str):
    data = _load_json(text, StrategyFileError)
    _require_keys(data, {"kind"}, {"signs", "angles", "wiring"}, "strategy", StrategyFileError)
    if data["kind"] == "deterministic":
        _require_keys(data, {"kind", "signs"}, set(), "deterministic strategy", StrategyFileError)
        signs = {}
        for entry in _strategy_entries(data, "signs", {"player", "input", "vertex", "sign"}, "sign entry"):
            signs[_unique_key(signs, entry, ("player", "input", "vertex"), "sign entry")] = entry["sign"]
        return DeterministicStrategy(signs=signs)
    if data["kind"] == "quantum":
        _require_keys(data, {"kind", "angles", "wiring"}, set(), "quantum strategy", StrategyFileError)
        angles = {}
        for entry in _strategy_entries(data, "angles", {"player", "vertex", "input", "angle"}, "angle entry"):
            key = _unique_key(angles, entry, ("player", "vertex", "input"), "angle entry")
            angles[key] = _number(entry["angle"], f"angle of {key}", StrategyFileError)
        wiring = {}
        wiring_keys = {"player", "input", "vertex", "sign", "refs"}
        for entry in _strategy_entries(data, "wiring", wiring_keys, "wiring entry"):
            refs = entry["refs"]
            if not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
                raise StrategyFileError("wiring refs must be a list of strings")
            key = _unique_key(wiring, entry, ("player", "input", "vertex"), "wiring entry")
            wiring[key] = OutputExpr(entry["sign"], tuple(refs))
        return QuantumStrategy(angles=angles, wiring=wiring)
    raise StrategyFileError(f"unknown strategy kind {data['kind']!r}")


def parse_strategy_file(path):
    return parse_strategy(_read_text(path, StrategyFileError))


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def render_report(pairs: list[tuple[str, str]]) -> str:
    return "".join(f"{k}: {v}\n" for k, v in pairs)


@functools.cache
def _schema() -> tuple[list[tuple[re.Pattern, re.Pattern]], list[tuple[str, tuple[str, ...]]]]:
    """The schema's (key, value) patterns and its (report kind, required keys) rules."""
    rules, required = [], []
    text = resources.files("graphgame").joinpath("report_schema.txt").read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key_pat, value_pat = line.split(None, 1)
        if key_pat == "require":
            kind, keys = value_pat.split()
            required.append((kind, tuple(keys.split("|"))))
        else:
            rules.append((re.compile(rf"^{key_pat}$"), re.compile(rf"^{value_pat}$")))
    return rules, required


def validate_report(text: str) -> list[str]:
    """Schema-check a report; returns a list of problems, empty when clean.

    Every line must match a key pattern and its value pattern, and the report
    must hold the keys the schema requires of its kind: its ``status`` when
    that is ``error`` or ``invalid``, else its ``command``.
    """
    rules, required = _schema()
    problems = []
    report = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if ": " not in line:
            problems.append(f"line {lineno}: not a 'key: value' pair")
            continue
        key, value = line.split(": ", 1)
        report[key] = value
        for key_pat, value_pat in rules:
            if key_pat.match(key):
                if not value_pat.match(value):
                    problems.append(f"line {lineno}: value {value!r} invalid for key {key!r}")
                break
        else:
            problems.append(f"line {lineno}: unknown report key {key!r}")
    status = report.get("status")
    kind = status if status in ("error", "invalid") else report.get("command")
    for when, keys in required:
        if when in ("*", kind) and not any(k in report for k in keys):
            problems.append(f"missing key {' or '.join(map(repr, keys))}")
    return problems
