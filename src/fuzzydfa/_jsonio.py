"""Deterministic JSON output and strict schema helpers for problem files."""

from __future__ import annotations

import json
from typing import Any, Iterable

from .truth import TruthInterval

__all__ = ["FileFormatError", "dumps", "check_keys", "load_setting", "load_value", "dump_value"]


class FileFormatError(ValueError):
    """A problem/model file violated its documented schema."""


def dumps(obj: Any) -> str:
    """Serialize to JSON with floats at 17 significant digits.

    Key order is preserved, so identical inputs produce byte-identical output.
    """
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


def _write(obj: Any, parts: list[str]) -> None:
    if isinstance(obj, TruthInterval):
        _write([obj.lo, obj.hi], parts)
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, int):
        parts.append(repr(obj))
    elif isinstance(obj, float):
        parts.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _write(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(", ")
            _write(value, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def check_keys(obj: Any, context: str, required: Iterable[str], optional: Iterable[str] = ()) -> None:
    """Reject non-dict values, missing required keys and unknown keys."""
    if not isinstance(obj, dict):
        raise FileFormatError(f"{context}: expected an object, got {type(obj).__name__}")
    required = set(required)
    allowed = required | set(optional)
    missing = required - obj.keys()
    if missing:
        raise FileFormatError(f"{context}: missing keys {sorted(missing)}")
    unknown = obj.keys() - allowed
    if unknown:
        raise FileFormatError(f"{context}: unknown keys {sorted(unknown)}")


def load_setting(data: dict, key: str, *, integer: bool = False) -> Any:
    """Read an optional numeric setting, or None when ``key`` is absent.

    Booleans, strings, null and (with ``integer``) fractions are rejected,
    not coerced; the range is left to the consumer (``SolverConfig``).
    """
    if key not in data:
        return None
    raw = data[key]
    kinds = (int,) if integer else (int, float)
    if isinstance(raw, bool) or not isinstance(raw, kinds):
        expected = "an integer" if integer else "a number"
        raise FileFormatError(f"{key}: expected {expected}, got {raw!r}")
    return raw if integer else float(raw)


def load_value(raw: Any, context: str, *, interval: bool) -> Any:
    """Read a truth value: a scalar, or (interval mode) a [lo, hi] pair.

    Scalars in interval mode are lifted to degenerate intervals.
    """
    try:
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return TruthInterval.degenerate(raw) if interval else float(_check_unit(raw))
        if interval and isinstance(raw, list) and len(raw) == 2:
            return TruthInterval(float(raw[0]), float(raw[1]))
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{context}: {exc}") from None
    kinds = "a number or a [lo, hi] pair" if interval else "a number"
    raise FileFormatError(f"{context}: expected {kinds}, got {raw!r}")


def _check_unit(x: float) -> float:
    from .truth import truth_value

    return truth_value(x)


def dump_value(value: Any) -> Any:
    return [value.lo, value.hi] if isinstance(value, TruthInterval) else value
