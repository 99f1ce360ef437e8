"""Deterministic JSON output and strict schema helpers for problem files."""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str
from typing import Any, Callable, Iterable, Sequence

from .truth import LogicFamily, TruthInterval, _Record, truth_value

__all__ = [
    "FileFormatError",
    "LCM_MODES",
    "Settings",
    "dumps",
    "load_file",
    "check_keys",
    "load_list",
    "load_items",
    "load_string",
    "load_strings",
    "load_number",
    "load_settings",
    "load_edge",
    "load_value",
    "dump_value",
]

# The values of an LCM problem file's "mode"; here rather than in ``lcm`` so
# the command line can list them without loading the engine.
LCM_MODES = ("crisp", "fuzzy", "interval")


class FileFormatError(ValueError):
    """A problem/model file violated its documented schema."""


def dumps(obj: Any) -> str:
    """Serialize to JSON with floats at 17 significant digits.

    Key order is preserved, so identical inputs produce byte-identical output.
    One pass writes a ``%.17g`` slot per float (other ``%`` doubled), and one
    ``%`` formats the collected floats.  A row of floats or of [float, float]
    lists, a table (a dict of such rows of one length) and records (dicts with
    the same keys in order, columns of strings or such rows) take one template."""
    parts: list[str] = []
    values: list = []  # the floats, and the quoted strings of records
    _write(obj, parts, values)
    return "".join(parts) % tuple(values)


# An LCM report's rows all have its expression count as length: one per report.
_slots = lru_cache(maxsize=64)(lambda n, item: "[" + ", ".join([item] * n) + "]")


def _table(rows: Sequence) -> tuple[str, list[float]] | None:
    """One row's slots and all rows' floats in order, if ``rows`` are lists of
    one length of exact floats only, or of [float, float] lists only; else None."""
    if not all_of(list, rows) or list(map(len, rows)).count(n := len(rows[0])) != len(rows):
        return None
    flat = list(chain.from_iterable(rows))
    if all_of(float, flat):
        return _slots(n, "%.17g"), flat
    pairs = _table(flat)  # rows of [float, float] lists
    return (_slots(n, pairs[0]), pairs[1]) if pairs and pairs[0] == "[%.17g, %.17g]" else None


def _columns(columns: Sequence[Sequence]) -> tuple[list[str], Iterable] | None:
    """Each column's slot, ``%s`` for strings or a ``_table``'s, and the values
    item by item, if every column is either; else None."""
    slots, iters = [], []
    for column in columns:
        if all_of(str, column):
            slots.append("%s")
            iters.append(map(_quote, column))
        elif table := _table(column):
            slots.append(table[0])
            iters += [iter(table[1])] * (len(table[1]) // len(column))  # one per float of an item
        else:
            return None
    return slots, chain.from_iterable(zip(*iters))


def _write(obj: Any, parts: list[str], values: list) -> None:
    if type(obj) is float:
        parts.append("%.17g")
        values.append(obj)
    elif isinstance(obj, (list, tuple)):
        if table := _table((obj,)):
            parts.append(table[0])
            values.extend(table[1])
        elif (obj and all_of(dict, obj) and list(map(tuple, obj)).count(tuple(obj[0])) == len(obj)
              and (written := _columns(list(zip(*map(dict.values, obj)))))):  # records
            keys = [_quote(str(key)).replace("%", "%%") + ": " for key in obj[0]]
            record = "{" + ", ".join(map(str.__add__, keys, written[0])) + "}"
            parts.append("[" + ", ".join([record] * len(obj)) + "]")
            values.extend(written[1])
        else:
            parts.append("[")
            for value in obj:
                _write(value, parts, values)
                parts.append(", ")
            parts[-1] = "]" if obj else "[]"
    elif isinstance(obj, dict):
        if obj and (table := _table(list(obj.values()))):
            sep = ": " + table[0]  # _quote escapes control characters: "\0" marks the joints
            keys = "\0".join(map(_quote, map(str, obj))).replace("%", "%%")
            parts.append("{" + keys.replace("\0", sep + ", ") + sep + "}")
            values.extend(table[1])
        else:
            parts.append("{")
            for key, value in obj.items():
                parts.append(_quote(str(key)).replace("%", "%%") + ": ")
                _write(value, parts, values)
                parts.append(", ")
            parts[-1] = "}" if obj else "{}"
    elif isinstance(obj, str):
        parts.append(_quote(obj).replace("%", "%%"))
    elif isinstance(obj, TruthInterval):
        _write([obj.lo, obj.hi], parts, values)
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, int):
        parts.append(repr(obj).replace("%", "%%"))
    elif isinstance(obj, float):
        parts.append(format(obj, ".17g").replace("%", "%%"))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def load_file(path: str) -> Any:
    """Parse a JSON file; a syntax error names the file, line and column."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def check_keys(obj: Any, context: str, required: Iterable[str], optional: Iterable[str] = ()) -> None:
    """Reject non-dict values, missing required keys and unknown keys."""
    if not isinstance(obj, dict):
        raise FileFormatError(f"{context}: expected an object, got {type(obj).__name__}")
    if obj.keys() == (required := set(required)):
        return  # exactly the required keys, as most objects have
    allowed = required | set(optional)
    missing = required - obj.keys()
    if missing:
        raise FileFormatError(f"{context}: missing keys {sorted(missing)}")
    unknown = obj.keys() - allowed
    if unknown:
        raise FileFormatError(f"{context}: unknown keys {sorted(unknown)}")


def load_list(raw: Any, context: str) -> list:
    """Return ``raw``, which must be a JSON array."""
    if not isinstance(raw, list):
        raise FileFormatError(f"{context}: expected a list, got {type(raw).__name__}")
    return raw


def load_items(raw: Any, context: str, load: Callable[[Any], Any]) -> list:
    """``load`` on each item of the JSON array ``raw``.  The messages of
    ``load`` name what is wrong inside the item (``.alpha: ...``, or ``: ...``
    for the item itself); item i's ``context[i]`` is put in front only when
    it fails, so no context is formatted for an item that loads."""
    out = []
    for i, item in enumerate(load_list(raw, context)):
        try:
            out.append(load(item))
        except FileFormatError as exc:
            raise FileFormatError(f"{context}[{i}]{exc}") from None
    return out


def load_string(raw: Any, context: str) -> str:
    """Return ``raw``, which must be a JSON string: names are not coerced."""
    if not isinstance(raw, str):
        raise FileFormatError(f"{context}: expected a string, got {raw!r}")
    return raw


def load_strings(raw: Any, context: str) -> list[str]:
    """A copy of ``raw``, which must be a JSON array of strings; item k is
    ``context[k]`` in a message."""
    if not all_of(str, load_list(raw, context)):  # walked to name the bad item
        load_items(raw, context, lambda item: load_string(item, ""))
    return list(raw)


def load_number(raw: Any, context: str, *, integer: bool = False) -> Any:
    """Read a JSON number as a finite float (with ``integer``, as an int).

    Booleans, strings, null, NaN, infinities and (with ``integer``)
    fractions are rejected, not coerced; the range is left to the consumer.
    """
    kinds = (int,) if integer else (int, float)
    if isinstance(raw, bool) or not isinstance(raw, kinds):
        expected = "an integer" if integer else "a number"
        raise FileFormatError(f"{context}: expected {expected}, got {raw!r}")
    if isinstance(raw, float) and not math.isfinite(raw):
        raise FileFormatError(f"{context}: expected a finite number, got {raw!r}")
    try:
        return raw if integer else float(raw)
    except OverflowError:
        raise FileFormatError(f"{context}: integer too large for a float") from None


class Settings(_Record):
    """The solver settings a problem file carries: its mode, and the logic
    family and stopping rule, None where the file leaves them out."""

    _fields = ("mode", "logic", "epsilon", "max_iters")

    def __init__(self, mode: str, logic: LogicFamily | None = None, epsilon: float | None = None,
                 max_iters: int | None = None) -> None:
        self.mode, self.logic, self.epsilon, self.max_iters = mode, logic, epsilon, max_iters


def load_settings(data: dict, modes: Sequence[str], default: str) -> Settings:
    """Read a problem file's optional ``mode`` (one of ``modes``, else
    ``default``), ``logic``, ``epsilon`` and ``max_iters``.  The numbers are
    read as ``load_number`` reads them; their range is checked by
    ``SolverConfig``."""
    mode = data.get("mode", default)
    if mode not in modes:
        raise FileFormatError(f"mode: expected one of {modes}, got {mode!r}")
    logic = None
    if "logic" in data:
        try:
            logic = LogicFamily.parse(str(data["logic"]))
        except ValueError as exc:
            raise FileFormatError(f"logic: {exc}") from None
    epsilon = load_number(data["epsilon"], "epsilon") if "epsilon" in data else None
    max_iters = (load_number(data["max_iters"], "max_iters", integer=True)
                 if "max_iters" in data else None)
    return Settings(mode, logic, epsilon, max_iters)


def load_edge(raw: Any, make: Callable[..., Any], weights: tuple[str, ...]) -> Any:
    """``make(src, dst, *weights)`` from one edge object of a problem file,
    for ``load_items``: ``from`` and ``to`` are names, each of ``weights``
    a number, and a ``ValueError`` of ``make`` is a format error."""
    check_keys(raw, "", ("from", "to") + weights)
    args = [load_string(raw["from"], ".from"), load_string(raw["to"], ".to")]
    for key in weights:  # a loop, not a comprehension: one frame fewer per edge
        args.append(load_number(raw[key], "." + key))
    try:
        return make(*args)
    except ValueError as exc:
        raise FileFormatError(f": {exc}") from None


def load_value(raw: Any, context: str, *, interval: bool) -> Any:
    """Read a truth value: a scalar, or (interval mode) a [lo, hi] pair.

    Scalars in interval mode are lifted to degenerate intervals; the ends
    of a pair must be numbers too.
    """
    pair = interval and isinstance(raw, list) and len(raw) == 2
    if pair and not (type(raw[0]) is float and type(raw[1]) is float):
        raw = [load_number(v, f"{context}[{k}]") for k, v in enumerate(raw)]
    try:
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return TruthInterval.degenerate(raw) if interval else truth_value(raw)
        if pair:
            return TruthInterval(*raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{context}: {exc}") from None
    kinds = "a number or a [lo, hi] pair" if interval else "a number"
    raise FileFormatError(f"{context}: expected {kinds}, got {raw!r}")


def all_of(kind: type, values: Sequence) -> bool:
    """Whether the type of every value is ``kind`` itself (not a subclass)."""
    return list(map(type, values)).count(kind) == len(values)


def dump_value(value: Any) -> Any:
    return [value.lo, value.hi] if isinstance(value, TruthInterval) else value
