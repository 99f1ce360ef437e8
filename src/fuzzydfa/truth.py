"""Truth-value arithmetic: De Morgan triples on [0,1], and the intervals of [0,1].

A logic family bundles a T-norm (fuzzy AND), its De Morgan dual S-norm
(fuzzy OR) and the standard complement 1-x.  The Frank parametric family
interpolates between the three classical families: min-max (s -> 0),
product (s -> 1) and Lukasiewicz (s -> infinity).  The nilpotent family is
provided for completeness but its T-norm is discontinuous on x+y=1, so it
carries no Lipschitz guarantee.
"""

from __future__ import annotations

import contextlib
import math
import sys
from types import SimpleNamespace

__all__ = [
    "TruthValueError",
    "TruthInterval",
    "LogicFamily",
    "SolverConfig",
    "truth_value",
    "quantize",
]

# Construction tolerates this much rounding noise outside [0,1]; anything
# further out is a logic bug and is rejected.
_CLAMP_SLACK = 1e-12

# Frank parameters this close to 1 are evaluated as the product logic: the
# log formula has a removable singularity at s=1 and is unstable near it.
_FRANK_PRODUCT_BAND = 1e-6
# Smallest Frank parameter accepted.  As s -> 0 the ratio handed to log1p
# nears -1 and its rounding error is amplified by about 1/(s |log s|): at
# 2**-53 the T-norm is off by 4e-3 (at 2**-54 log1p(-1) is a domain error).
# 2**-28 is the smallest power of two where it agrees with a 50-digit
# evaluation to 1e-9 on the 65 x 65 grid i/64 (6e-10; 1.2e-9 at 2**-29).
_FRANK_MIN_S = 2.0**-28

# How far a node's incoming (or outgoing) edge weights may sum from 1.
WEIGHT_SUM_TOL = 1e-9

_FAMILY_KINDS = ("minmax", "product", "lukasiewicz", "nilpotent", "frank")

_NULL = contextlib.nullcontext()
# The names ``LogicFamily._tnorm`` and ``_snap`` compute with on floats; numpy has them all.
_FLOATS = SimpleNamespace(minimum=min, maximum=max, round=round, expm1=math.expm1, log1p=math.log1p,
                          where=lambda c, x, y: x if c else y, errstate=lambda **_: _NULL)

# Sets a frozen record's field in its ``__init__``, past the refusing
# __setattr__.  Unlike a write to ``self.__dict__``, it leaves the fields in
# the instance's compact inline storage: smaller, and faster to read.
_set = object.__setattr__


class _Record:
    """A record over the fields named in ``_fields``: ``==`` compares them,
    and only between instances of one class, and the repr is
    ``Name(field=value, ...)``.  Like any class with ``__eq__``, a record is
    unhashable unless it is ``_Frozen``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields  # ``case Name(a, b)`` binds fields by position

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A record whose fields ``__init__`` sets once (with ``_seal``); it hashes
    by them and refuses any later assignment or deletion."""

    def _seal(self, *values: object) -> None:
        """Set the fields to ``values``, given in ``_fields`` order."""
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class TruthValueError(ValueError):
    """Raised when a number cannot be interpreted as a degree in [0,1]."""


def truth_value(x: float) -> float:
    """Validate ``x`` as a degree in [0,1], clamping away <= 1e-12 of noise."""
    x = float(x)
    if not math.isfinite(x) or x < -_CLAMP_SLACK or x > 1.0 + _CLAMP_SLACK:
        raise TruthValueError(f"not a truth value in [0,1]: {x!r}")
    return min(1.0, max(0.0, x))


def _finite(x: object) -> bool:
    """Whether ``x`` is a finite real number that a float holds: an int or float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def quantize(x: float, q: int) -> float:
    """Snap ``x`` to the nearest element of {i/2^q}, ties to even ``i``."""
    if type(q) is not int or q < 1:  # a float level is off the grid, a bool no level
        raise ValueError(f"quantization level must be an integer >= 1, got {q!r}")
    if q > 1023:  # x * 2.0**q overflows
        raise ValueError(f"quantization level must be <= 1023, got {q}")
    return _snap(truth_value(x), q)


def _snap(x, q: int, xp=_FLOATS):
    """``quantize`` of checked degrees, on floats or with ``xp`` numpy on arrays, ties to even."""
    return xp.round(x * float(2**q)) / float(2**q)


class TruthInterval(_Frozen):
    """A sub-interval [lo, hi] of the unit interval.

    Used as the value domain of interval (type-2) analyses: the width of
    the interval measures uncertainty about the degree itself.
    """

    _fields = ("lo", "hi")
    lo: float
    hi: float

    def __init__(self, lo: float, hi: float) -> None:
        if type(lo) is float and type(hi) is float and 0.0 <= lo <= hi <= 1.0:
            # Already valid; truth_value would change only a -0.0.
            if lo == 0.0:
                lo, hi = 0.0, hi or 0.0
        else:
            lo, hi = truth_value(lo), truth_value(hi)
            if lo > hi:
                raise TruthValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        # Not ``_seal``: views build one interval per entry, and it is about 2x slower.
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    @staticmethod
    def degenerate(x: float) -> "TruthInterval":
        x = truth_value(x)
        return TruthInterval(x, x)

    @property
    def width(self) -> float:
        return self.hi - self.lo


class LogicFamily(_Frozen):
    """A (T-norm, S-norm, C-norm) triple; the S-norm is always the De Morgan
    dual of the T-norm, so duality holds bit-exactly by construction."""

    _fields = ("kind", "s")
    kind: str
    s: float | None

    def __init__(self, kind: str, s: float | None = None) -> None:
        if kind not in _FAMILY_KINDS:
            raise ValueError(f"unknown logic family {kind!r}")
        if kind == "frank":
            if not _finite(s) or s < _FRANK_MIN_S or s == 1.0:
                raise ValueError(
                    f"frank parameter must be finite, >= 2**-28 (~3.7e-9) and != 1, "
                    f"got {s!r} (the limits 0, 1, inf are minmax, product and "
                    "lukasiewicz; below 2**-28 the T-norm is off by more than 1e-9)"
                )
            s = float(s)  # so that equal parameters print alike
        elif s is not None:
            raise ValueError(f"{kind} takes no parameter")
        self._seal(kind, s)

    # -- construction ------------------------------------------------------

    @classmethod
    def minmax(cls) -> "LogicFamily":
        return cls("minmax")

    @classmethod
    def product(cls) -> "LogicFamily":
        return cls("product")

    @classmethod
    def lukasiewicz(cls) -> "LogicFamily":
        return cls("lukasiewicz")

    @classmethod
    def nilpotent(cls) -> "LogicFamily":
        return cls("nilpotent")

    @classmethod
    def frank(cls, s: float) -> "LogicFamily":
        return cls("frank", s)

    @classmethod
    def parse(cls, text: str) -> "LogicFamily":
        """Parse "minmax" | "product" | "lukasiewicz" | "nilpotent" | "frank:<s>"."""
        name = text.strip().lower()
        if name.startswith("frank:"):
            try:
                s = float(name[len("frank:"):])
            except ValueError:
                raise ValueError(f"bad frank parameter in {text!r}") from None
            return cls.frank(s)
        if name in ("minmax", "product", "lukasiewicz", "nilpotent"):
            return cls(name)
        raise ValueError(
            f"unknown logic family {text!r}; expected minmax, product, "
            "lukasiewicz, nilpotent or frank:<s>"
        )

    def __str__(self) -> str:
        if self.kind == "frank":
            return f"frank:{self.s!r}"
        return self.kind

    # -- norms -------------------------------------------------------------

    def tnorm(self, x: float, y: float) -> float:
        """Fuzzy conjunction; commutative, associative, monotone, identity 1."""
        return self._tnorm(truth_value(x), truth_value(y))

    def _tnorm(self, x, y, xp=_FLOATS):
        """``tnorm`` of degrees already checked: on floats, or with ``xp`` numpy
        element by element on arrays, which give the floats' bits wherever
        ``tnorm``'s checks leave an input as it is (every degree but -0.0).  But
        Frank's numpy ``expm1`` and ``log1p`` are ``math``'s only on numpy's
        baseline loops: its SIMD loops (AVX-512) move Frank by up to about 1e-14."""
        kind = self.kind
        if kind == "minmax":
            return xp.minimum(x, y)
        if kind == "lukasiewicz":
            return xp.maximum(x + y - 1.0, 0.0)
        if kind == "nilpotent":
            return xp.where(x + y > 1.0, xp.minimum(x, y), 0.0)
        s = self.s
        if kind == "product" or abs(s - 1.0) <= _FRANK_PRODUCT_BAND:
            return x * y
        ls = math.log(s)
        # log_s(1 + (s^x - 1)(s^y - 1)/(s - 1)); expm1/log1p keep the
        # evaluation stable for s close to 0 or very large.  The product of
        # the expm1s is at most about (s - 1)^2, so it can overflow only for a
        # huge s; then it goes to inf silently, as Python floats do.
        with xp.errstate(over="ignore") if s > 1e150 else _NULL:
            ratio = xp.expm1(x * ls) * xp.expm1(y * ls) / (s - 1.0)
        out = xp.log1p(ratio) / ls
        # min(1.0, max(0.0, out)), which turns an array's -0.0 to 0.0 as well.
        return xp.where(out < 1.0, xp.where(out > 0.0, out, 0.0), 1.0)

    @property
    def _reorders(self) -> bool:
        """Whether ``_tnorm`` can swap an interval's ends: only Frank's rounding can."""
        return self.kind == "frank"

    def snorm(self, x: float, y: float) -> float:
        """Fuzzy disjunction, derived as cnorm(tnorm(cnorm(x), cnorm(y)))."""
        return self.cnorm(self.tnorm(self.cnorm(x), self.cnorm(y)))

    def cnorm(self, x: float) -> float:
        """Involutive complement 1-x."""
        return 1.0 - truth_value(x)


class SolverConfig(_Frozen):
    """A logic family and a fixed-point solve's stopping rule; its defaults are the package's."""

    _fields = ("family", "epsilon", "max_iters", "quantize_bits")
    family: LogicFamily
    epsilon: float
    max_iters: int
    quantize_bits: int | None

    def __init__(self, family: LogicFamily = LogicFamily("minmax"), epsilon: float = 1e-6,
                 max_iters: int = 100_000, quantize_bits: int | None = None) -> None:
        if not isinstance(family, LogicFamily):
            raise ValueError(f"family must be a LogicFamily, got {family!r}")
        if not (_finite(epsilon) and epsilon > 0.0):
            raise ValueError(f"epsilon must be > 0 and finite, got {epsilon!r}")
        if type(max_iters) is not int:  # bools are not counts
            raise ValueError(f"max_iters must be an integer, got {max_iters!r}")
        if max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {max_iters}")
        if quantize_bits is not None and (type(quantize_bits) is not int or quantize_bits < 1):
            raise ValueError(
                f"quantize_bits must be None or an integer >= 1, got {quantize_bits!r}")
        if quantize_bits is not None and quantize_bits > 1023:  # x * 2.0**q overflows
            raise ValueError(f"quantize_bits must be <= 1023, got {quantize_bits}")
        self._seal(family, epsilon, max_iters, quantize_bits)
