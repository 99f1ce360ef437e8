"""ASTs for fuzzy transfer functions, plus parsing, printing and evaluation.

The connectives are interpreted through a :class:`~fuzzydfa.truth.LogicFamily`:
``And`` -> T-norm, ``Or`` -> S-norm, ``Not`` -> complement.  One interpreter
serves the scalar and the interval reading: a formula is compiled once into a
closure over values held as tuples of ends, ``(x,)`` for a degree and
``(lo, hi)`` for an interval (scalars are lifted to ``(c, c)``).  Values are
checked once on entry, so out-of-range ones raise TruthValueError.

Text syntax (used by problem files)::

    formula := or
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | NUMBER | IDENT | '(' or ')'

Precedence is ``!`` > ``&`` > ``|``; both binary connectives fold left.
"""

from __future__ import annotations

import re
from typing import Mapping, Union

from .truth import LogicFamily, TruthInterval, _Frozen, truth_value

Value = Union[float, TruthInterval]

__all__ = [
    "Formula",
    "Var",
    "Const",
    "Not",
    "And",
    "Or",
    "free_vars",
    "evaluate",
    "evaluate_interval",
    "format_formula",
    "parse_formula",
    "UnboundVariableError",
    "FormulaSyntaxError",
]


class UnboundVariableError(LookupError):
    """A formula referenced a property the valuation does not define."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class FormulaSyntaxError(ValueError):
    """Parse error carrying 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Formula(_Frozen):
    """Base class; concrete nodes are Var, Const, Not, And, Or."""


class Var(Formula):
    _fields = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("variable name must be nonempty")
        self._seal(name)


class Const(Formula):
    _fields = ("value",)
    value: Value

    def __init__(self, value: Value) -> None:
        self._seal(value if isinstance(value, TruthInterval) else truth_value(value))


class Not(Formula):
    _fields = ("arg",)
    arg: Formula

    def __init__(self, arg: Formula) -> None:
        self._seal(arg)


class _Binary(Formula):
    _fields = ("left", "right")
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        self._seal(left, right)


class And(_Binary):
    pass


class Or(_Binary):
    pass


def free_vars(f: Formula) -> frozenset[str]:
    out: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, (And, Or)):
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(out)


def evaluate(f: Formula, family: LogicFamily, valuation: Mapping[str, float]) -> float:
    """Scalar interpretation of ``f`` under ``valuation``.

    Raises UnboundVariableError for missing properties, TruthValueError for
    values outside [0,1] and TypeError for interval values or constants.
    """
    return _Ops(family, 1).run(f, valuation)


def evaluate_interval(f: Formula, family: LogicFamily, valuation: Mapping[str, Value]) -> TruthInterval:
    """Interval interpretation; scalar values and constants are lifted to [c, c]."""
    return _Ops(family, 2).run(f, valuation)


# -- the compiled interpreter --------------------------------------------------
# A value is a tuple of ends: (x,) for a degree, (lo, hi) for an interval.


class _Ops:
    """One logic family's connectives on values of one width, one closure each: the
    T-norm end by end, re-sorting a pair if the family ``_reorders``, the complement
    reversing a pair and the S-norm their De Morgan dual.  Only ``lift`` checks values."""

    def __init__(self, family: LogicFamily, width: int):
        self.width, t = width, family._tnorm
        if width == 1:
            tnorm = lambda x, y: (t(x[0], y[0]),)  # noqa: E731
            cnorm = lambda x: (1.0 - x[0],)  # noqa: E731
        else:
            if family._reorders:
                def tnorm(x, y):
                    lo, hi = t(x[0], y[0]), t(x[1], y[1])
                    return (lo, hi) if lo <= hi else (hi, lo)
            else:
                tnorm = lambda x, y: (t(x[0], y[0]), t(x[1], y[1]))  # noqa: E731
            cnorm = lambda x: (1.0 - x[1], 1.0 - x[0])  # noqa: E731
        self.tnorm, self.cnorm = tnorm, cnorm
        self.snorm = lambda x, y: cnorm(tnorm(cnorm(x), cnorm(y)))

    def lift(self, value: Value, what: str = "value in scalar evaluation") -> tuple:
        """``value`` checked and as ends; a scalar in an interval is [x, x]."""
        if isinstance(value, TruthInterval):
            if self.width == 1:
                raise TypeError(f"interval {what}")
            return (value.lo, value.hi)
        return (truth_value(value),) * self.width

    def unlift(self, value: tuple) -> Value:
        return value[0] if self.width == 1 else TruthInterval(*value)

    def compile(self, f: Formula, names: Mapping[str, str]):
        """``f`` as a function of a valuation of ends; variable v reads names.get(v, v)."""
        if isinstance(f, Var):
            name = f.name
            key = names.get(name, name)

            def read(env):
                try:
                    return env[key]
                except KeyError:
                    raise UnboundVariableError(name) from None

            return read
        if isinstance(f, Const):
            value = self.lift(f.value, "constant in scalar evaluation")
            return lambda env: value
        if isinstance(f, Not):
            arg, cnorm = self.compile(f.arg, names), self.cnorm
            return lambda env: cnorm(arg(env))
        if isinstance(f, (And, Or)):
            left, right = self.compile(f.left, names), self.compile(f.right, names)
            op = self.tnorm if isinstance(f, And) else self.snorm
            return lambda env: op(left(env), right(env))
        raise TypeError(f"not a formula node: {f!r}")

    def run(self, f: Formula, valuation: Mapping[str, Value]) -> Value:
        env = {name: self.lift(value) for name, value in valuation.items()}
        return self.unlift(self.compile(f, {})(env))


# -- printing ---------------------------------------------------------------

_PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3


def format_formula(f: Formula) -> str:
    """Render ``f`` in the text syntax; parse_formula(format_formula(f)) == f."""

    def fmt(node: Formula, parent_prec: int) -> str:
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Const):
            if isinstance(node.value, TruthInterval):
                raise TypeError("interval constants have no text form")
            return repr(node.value)
        if isinstance(node, Not):
            return "!" + fmt(node.arg, _PREC_UNARY)
        if isinstance(node, And):
            text = f"{fmt(node.left, _PREC_AND)} & {fmt(node.right, _PREC_AND + 1)}"
            return f"({text})" if parent_prec > _PREC_AND else text
        if isinstance(node, Or):
            text = f"{fmt(node.left, _PREC_OR)} | {fmt(node.right, _PREC_OR + 1)}"
            return f"({text})" if parent_prec > _PREC_OR else text
        raise TypeError(f"not a formula node: {node!r}")

    return fmt(f, 0)


# -- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[!&|()])"
)


def _error_at(text: str, pos: int, message: str) -> FormulaSyntaxError:
    """The error ``message`` at offset ``pos`` of ``text``, with its line and column."""
    return FormulaSyntaxError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, whitespace left out, then ("end", "", len(text))."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise _error_at(text, pos, f"unexpected character {text[pos]!r}")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", pos))
    return tokens


def parse_formula(text: str) -> Formula:
    """Parse the text syntax into a Formula; errors carry line/column."""
    tokens = _tokenize(text)
    index = 0

    def peek() -> tuple[str, str, int]:
        return tokens[index]

    def advance() -> tuple[str, str, int]:
        nonlocal index
        tok = tokens[index]
        index += 1
        return tok

    def parse_or() -> Formula:
        node = parse_and()
        while peek()[:2] == ("op", "|"):
            advance()
            node = Or(node, parse_and())
        return node

    def parse_and() -> Formula:
        node = parse_unary()
        while peek()[:2] == ("op", "&"):
            advance()
            node = And(node, parse_unary())
        return node

    def parse_unary() -> Formula:
        kind, value, pos = peek()
        if (kind, value) == ("op", "!"):
            advance()
            return Not(parse_unary())
        if kind == "num":
            advance()
            try:
                return Const(float(value))
            except ValueError as exc:
                raise _error_at(text, pos, str(exc)) from None
        if kind == "ident":
            advance()
            return Var(value)
        if (kind, value) == ("op", "("):
            advance()
            node = parse_or()
            kind, value, pos = peek()
            if (kind, value) != ("op", ")"):
                raise _error_at(text, pos, "expected ')'")
            advance()
            return node
        raise _error_at(text, pos, "unexpected end of formula" if kind == "end"
                        else f"expected a constant, identifier, '!' or '(', got {value!r}")

    node = parse_or()
    kind, value, pos = peek()
    if kind != "end":
        raise _error_at(text, pos, f"trailing input {value!r}")
    return node
