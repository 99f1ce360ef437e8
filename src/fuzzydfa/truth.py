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
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

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

_FAMILY_KINDS = ("minmax", "product", "lukasiewicz", "nilpotent", "frank")

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
    """A record whose fields ``__init__`` sets once (with ``_set``); it hashes
    by them and refuses any later assignment or deletion."""

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
    """Whether ``x`` is a finite real number: an int or float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and -math.inf < x < math.inf


def quantize(x: float, q: int) -> float:
    """Snap ``x`` to the nearest element of {i/2^q}, ties to even ``i``."""
    if q < 1:
        raise ValueError(f"quantization level must be >= 1, got {q}")
    scale = float(2**q)
    # Python's round() rounds half to even, which is the tie rule we document.
    return min(1.0, round(truth_value(x) * scale) / scale)


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
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    @staticmethod
    def degenerate(x: float) -> "TruthInterval":
        x = truth_value(x)
        return TruthInterval(x, x)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _each(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` applied to every element of the float array ``x``."""
    import numpy as np

    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


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
            if s is None or not math.isfinite(s) or s < _FRANK_MIN_S or s == 1.0:
                raise ValueError(
                    f"frank parameter must be finite, >= 2**-28 (~3.7e-9) and != 1, "
                    f"got {s!r} (the limits 0, 1, inf are minmax, product and "
                    "lukasiewicz; below 2**-28 the T-norm is off by more than 1e-9)"
                )
        elif s is not None:
            raise ValueError(f"{kind} takes no parameter")
        _set(self, "kind", kind)
        _set(self, "s", s)

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
        return cls("frank", float(s))

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

    # -- scalar norms ------------------------------------------------------

    def tnorm(self, x: float, y: float) -> float:
        """Fuzzy conjunction; commutative, associative, monotone, identity 1."""
        return self._tnorm(truth_value(x), truth_value(y))

    def _tnorm(self, x: float, y: float) -> float:
        """``tnorm`` of two degrees already checked."""
        kind = self.kind
        if kind == "minmax":
            return min(x, y)
        if kind == "product":
            return x * y
        if kind == "lukasiewicz":
            return max(x + y - 1.0, 0.0)
        if kind == "nilpotent":
            return min(x, y) if x + y > 1.0 else 0.0
        s = self.s
        if abs(s - 1.0) <= _FRANK_PRODUCT_BAND:
            return x * y
        ls = math.log(s)
        # log_s(1 + (s^x - 1)(s^y - 1)/(s - 1)); expm1/log1p keep the
        # evaluation stable for s close to 0 or very large.
        ratio = math.expm1(x * ls) * math.expm1(y * ls) / (s - 1.0)
        return min(1.0, max(0.0, math.log1p(ratio) / ls))

    def _term(self, x: np.ndarray) -> np.ndarray:
        """One operand as ``_tnorm_terms`` takes it: expm1(x ln s) for Frank
        off the product band, else ``x``; a fixed operand needs it once."""
        if self.kind != "frank" or abs(self.s - 1.0) <= _FRANK_PRODUCT_BAND:
            return x
        # Only expm1 and log1p run per element, and through math: numpy's
        # own expm1 and log1p round some inputs differently.
        return _each(math.expm1, x * math.log(self.s))

    def _tnorm_terms(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``tnorm`` element by element on numpy arrays of degrees in [0,1],
        from its operands' ``_term``s.

        The inputs are neither checked nor clamped, so the result equals
        ``tnorm``'s bit for bit wherever ``tnorm``'s checks leave an input as
        it is: on every degree but -0.0.
        """
        import numpy as np  # the module itself, scalar norms and all, needs no numpy

        kind = self.kind
        if kind == "minmax":
            return np.minimum(x, y)
        if kind == "lukasiewicz":
            return np.maximum(x + y - 1.0, 0.0)
        if kind == "nilpotent":
            return np.where(x + y > 1.0, np.minimum(x, y), 0.0)
        s = self.s
        if kind == "product" or abs(s - 1.0) <= _FRANK_PRODUCT_BAND:
            return x * y
        # The scalar's formula in the scalar's operation order.  x * y is at
        # most about (s - 1)^2, so it can overflow only for a huge s; then it
        # goes to inf silently, as Python floats do.
        with np.errstate(over="ignore") if s > 1e150 else contextlib.nullcontext():
            ratio = x * y / (s - 1.0)
        out = _each(math.log1p, ratio) / math.log(s)
        # min(1.0, max(0.0, out)) as Python evaluates it, -0.0 to 0.0 included.
        out = np.where(out > 0.0, out, 0.0)
        return np.where(out < 1.0, out, 1.0)

    def snorm(self, x: float, y: float) -> float:
        """Fuzzy disjunction, derived as cnorm(tnorm(cnorm(x), cnorm(y)))."""
        return self.cnorm(self.tnorm(self.cnorm(x), self.cnorm(y)))

    def cnorm(self, x: float) -> float:
        """Involutive complement 1-x."""
        return 1.0 - truth_value(x)


class SolverConfig(_Frozen):
    """A logic family and the stopping rule of a fixed-point solve."""

    _fields = ("family", "epsilon", "max_iters", "quantize_bits")
    family: LogicFamily
    epsilon: float
    max_iters: int
    quantize_bits: int | None

    def __init__(self, family: LogicFamily, epsilon: float = 1e-6, max_iters: int = 100_000,
                 quantize_bits: int | None = None) -> None:
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
        _set(self, "family", family)
        _set(self, "epsilon", epsilon)
        _set(self, "max_iters", max_iters)
        _set(self, "quantize_bits", quantize_bits)
