"""Deterministic JSON output and strict schema helpers for problem files."""

from __future__ import annotations

import json
import math
import struct
import sys
from functools import lru_cache
from itertools import chain, islice
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
    the same keys in order, columns of strings or such rows) take one template;
    rows of +0.0 and 1.0 only, as crisp reports hold, are written from their
    bytes, one ``%s`` slot per row.  Where numpy is already loaded, the other
    rows of the call (soft reports') are written by ``_digits`` in one batch if
    all their floats lie in [0, 1], one ``%s`` slot per row; else the call takes
    a ``%.17g`` slot per float.  The bytes are the same either way."""
    batch = [] if sys.modules.get("numpy") else None  # never imported here
    parts, values = [], []  # the template, and iterables of what fills its slots
    _write(obj, parts, values, batch)
    if batch:
        from ._digits import write

        text = write(list(chain.from_iterable(item[0] for item in batch)),
                     b"".join(item[1] for item in batch))
        if text is None:  # a float outside [0, 1]
            parts, values = [], []
            _write(obj, parts, values, None)
        else:
            rows = iter(text.split("\n"))
            for _, _, texts in batch:
                texts[:] = islice(rows, len(texts))
    return "".join(parts) % tuple(chain.from_iterable(values))


# An LCM report's rows all have its expression count as length: one per report.
_slots = lru_cache(maxsize=64)(lambda n, item: "[" + ", ".join([item] * n) + "]")
# The 4 bytes, NUL-padded, that follow each float of a row of n floats (width
# 1) or n [lo, hi] pairs (width 2) in a ``_digits`` batch; "\n" ends the row.
_joints = lru_cache(maxsize=64)(
    lambda n, width: ((b", \0\0" + b"], [" * (width - 1)) * n)[:-4] + b"\n\0\0\0")


def _table(rows: Sequence, batch: list | None = None) -> tuple[str, list] | None:
    """One row's slot(s) and the values that fill them, row after row, if
    ``rows`` are lists of one length of exact floats only, or of [float, float]
    lists only; else None.  Rows of +0.0 and 1.0 only take one ``%s]`` slot
    and one text per row (see ``_bits``); other rows, one ``%.17g`` per float,
    or with a ``batch`` one ``%s`` per row and a list that ``dumps`` fills with
    the rows' texts, their floats put in ``batch``."""
    if not all_of(list, rows) or list(map(len, rows)).count(n := len(rows[0])) != len(rows):
        return None
    floats, width = list(chain.from_iterable(rows)), 1
    # Floats only, checked before the pack, which reads True, 1 and float subclasses
    # too; a table of [lo, hi] pairs, which fails the check, skips its pass.
    if (not floats or type(floats[0]) is not list) and all_of(float, floats):
        if bits := _bits(floats, n):
            return bits
    elif all_of(list, floats) and list(map(len, floats)).count(2) == len(floats):
        floats, width = list(chain.from_iterable(floats)), 2  # rows of [float, float] lists
        if not all_of(float, floats):
            return None
    else:
        return None
    if batch is None or not floats:
        return _slots(n, "%.17g" if width == 1 else "[%.17g, %.17g]"), floats
    texts = [None] * (len(floats) // (n * width))
    batch.append((floats, _joints(n, width) * len(texts), texts))
    return "[" * width + "%s" + "]" * width, texts


# An IEEE double's top two bytes (little-endian bytes 7 and 6): +0.0 has 00 00
# and 1.0 has 3F F0, with bytes 0-5 zero in both; "%.17g" prints them 0 and 1.
_SIXTH, _DIGIT = bytes.maketrans(b"\0?", b"\0\xf0"), bytes.maketrans(b"\0\1", b"01")
_UNIT, _TOP = bytes.maketrans(b"\0?", b"\0\1"), bytes.maketrans(b"\0\1", b"\0?")
_HI, _LO = (7, 6) if sys.byteorder == "little" else (0, 1)  # in this machine's doubles


def _units(flat: Sequence) -> bytes | None:
    """One 0/1 byte per number of ``flat`` (floats, or ints read as floats), if
    each is +0.0 or 1.0; else None.  -0.0 ("-0"), 0.5 and 1 + 2**-52 are not."""
    if flat and (flat[0] not in (0.0, 1.0) or flat[-1] not in (0.0, 1.0)):  # soft rows stop here
        return None
    try:
        raw = struct.pack("<%dd" % len(flat), *flat)
    except struct.error:  # an int too large for a float
        return None
    top, like = raw[7::8], bytearray(len(raw))  # like: +0.0 or 1.0 as each top byte reads
    like[6::8], like[7::8] = top.translate(_SIXTH), top
    if top.translate(None, b"\0?") or raw != like:
        return None
    return top.translate(_UNIT)


def _floats(units: bytes, count: int) -> list[list[float]]:
    """``count`` rows of floats, +0.0 or 1.0 as the 0/1 bytes ``units`` say."""
    if not units:  # no row or no column, which a memoryview's shape cannot hold
        return [[] for _ in range(count)]
    raw, top = bytearray(8 * len(units)), units.translate(_TOP)
    raw[_HI::8], raw[_LO::8] = top, top.translate(_SIXTH)
    return memoryview(raw).cast("d", (count, len(units) // count)).tolist()


def _bits(flat: list[float], n: int) -> tuple[str, list[str]] | None:
    """A row's ``%s]`` slot and each row's text up to its ``]``, if every float
    of ``flat`` (rows of ``n``) is +0.0 or 1.0 (see ``_units``); else None."""
    if not n or (units := _units(flat)) is None:
        return None
    digits = bytearray(_slots(n, "0"), "ascii") * (len(flat) // n)
    digits[1::3] = units.translate(_DIGIT)  # rows "[0, 0]" end to end: float i's digit is at 1 + 3 i
    return "%s]", digits[:-1].decode().split("]")  # each row's text but its "]"


def _columns(columns: Sequence[Sequence], batch: list | None) -> tuple[list[str], Iterable] | None:
    """Each column's slot, ``%s`` for strings or a ``_table``'s, and the values
    item by item, if every column is either; else None."""
    slots, iters = [], []
    for column in columns:
        if all_of(str, column):
            slots.append("%s")
            iters.append(map(_quote, column))
        elif table := _table(column, batch):
            slots.append(table[0])
            iters += [iter(table[1])] * (len(table[1]) // len(column))  # one per value of an item
        else:
            return None
    return slots, chain.from_iterable(zip(*iters))


def _write(obj: Any, parts: list[str], values: list, batch: list | None) -> None:
    if type(obj) is float:
        parts.append("%.17g")
        values.append((obj,))
    elif isinstance(obj, (list, tuple)):
        if table := _table((obj,), batch):
            parts.append(table[0])
            values.append(table[1])
        elif (obj and all_of(dict, obj) and list(map(tuple, obj)).count(tuple(obj[0])) == len(obj)
              and (written := _columns(list(zip(*map(dict.values, obj))), batch))):  # records
            keys = [_quote(str(key)).replace("%", "%%") + ": " for key in obj[0]]
            record = "{" + ", ".join(map(str.__add__, keys, written[0])) + "}"
            parts.append("[" + ", ".join([record] * len(obj)) + "]")
            values.append(written[1])
        else:
            parts.append("[")
            for value in obj:
                _write(value, parts, values, batch)
                parts.append(", ")
            parts[-1] = "]" if obj else "[]"
    elif isinstance(obj, dict):
        if obj and (written := _columns([list(obj), list(obj.values())], batch)):  # a table
            parts.append("{" + ", ".join([": ".join(written[0])] * len(obj)) + "}")
            values.append(written[1])
        else:
            parts.append("{")
            for key, value in obj.items():
                parts.append(_quote(str(key)).replace("%", "%%") + ": ")
                _write(value, parts, values, batch)
                parts.append(", ")
            parts[-1] = "}" if obj else "{}"
    elif isinstance(obj, str):
        parts.append(_quote(obj).replace("%", "%%"))
    elif isinstance(obj, TruthInterval):
        _write([obj.lo, obj.hi], parts, values, batch)
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
    """Parse a JSON file, byte-order mark or not; a syntax error names the file,
    line and column, and a key that an object repeats names the file and key."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            return json.load(handle, object_pairs_hook=_unique)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        except FileFormatError as exc:
            raise FileFormatError(f"{path}: {exc}") from None


def _unique(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object from its (key, value) pairs, which must not repeat a key."""
    if len(obj := dict(pairs)) < len(pairs):
        keys = [key for key, _ in pairs]
        raise FileFormatError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


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
    for the item itself), and any other ``ValueError`` of ``load``, such as a
    constructor's, is about the item itself; item i's ``context[i]`` is put
    in front only when it fails, so no context is formatted for an item that
    loads."""
    out = []
    for i, item in enumerate(load_list(raw, context)):
        try:
            out.append(load(item))
        except FileFormatError as exc:
            raise FileFormatError(f"{context}[{i}]{exc}") from None
        except ValueError as exc:
            raise FileFormatError(f"{context}[{i}]: {exc}") from None
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
    for ``load_items``, which reports a ``ValueError`` of ``make`` as the
    edge's: ``from`` and ``to`` are names, each of ``weights`` a number."""
    check_keys(raw, "", ("from", "to") + weights)
    args = [load_string(raw["from"], ".from"), load_string(raw["to"], ".to")]
    for key in weights:  # a loop, not a comprehension: one frame fewer per edge
        args.append(load_number(raw[key], "." + key))
    return make(*args)


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


def numbers(values: Sequence) -> bool:
    """Whether every value is a float or an int, not a bool or a subclass."""
    kinds = list(map(type, values))
    floats = kinds.count(float)  # fast, unlike counting a type that no value has
    return floats + (floats < len(values) and kinds.count(int)) == len(values)


def dump_value(value: Any) -> Any:
    return [value.lo, value.hi] if isinstance(value, TruthInterval) else value
