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

from .truth import LogicFamily, TruthInterval, _Frozen, _set, truth_value

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
        _set(self, "name", name)


class Const(Formula):
    _fields = ("value",)
    value: Value

    def __init__(self, value: Value) -> None:
        _set(self, "value", value if isinstance(value, TruthInterval) else truth_value(value))


class Not(Formula):
    _fields = ("arg",)
    arg: Formula

    def __init__(self, arg: Formula) -> None:
        _set(self, "arg", arg)


class _Binary(Formula):
    _fields = ("left", "right")
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


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
    """One logic family's connectives on values of one width.  The T-norm works
    end by end, the complement reverses a pair and the S-norm is their De
    Morgan dual; values are checked once, by ``lift``, so the norms skip it."""

    def __init__(self, family: LogicFamily, width: int):
        self.width, t = width, family._tnorm
        if width == 1:
            tnorm = lambda x, y: (t(x[0], y[0]),)  # noqa: E731
            cnorm = lambda x: (1.0 - x[0],)  # noqa: E731
        else:
            def tnorm(x, y):
                lo, hi = t(x[0], y[0]), t(x[1], y[1])
                # Monotonicity makes lo <= hi in exact arithmetic; guard the rounding.
                return (lo, hi) if lo <= hi else (hi, lo)

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


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(("end", "", line, col))
    return tokens


def parse_formula(text: str) -> Formula:
    """Parse the text syntax into a Formula; errors carry line/column."""
    tokens = _tokenize(text)
    index = 0

    def peek() -> tuple[str, str, int, int]:
        return tokens[index]

    def advance() -> tuple[str, str, int, int]:
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
        kind, value, line, col = peek()
        if (kind, value) == ("op", "!"):
            advance()
            return Not(parse_unary())
        if kind == "num":
            advance()
            try:
                return Const(float(value))
            except ValueError as exc:
                raise FormulaSyntaxError(str(exc), line, col) from None
        if kind == "ident":
            advance()
            return Var(value)
        if (kind, value) == ("op", "("):
            advance()
            node = parse_or()
            kind2, value2, line2, col2 = peek()
            if (kind2, value2) != ("op", ")"):
                raise FormulaSyntaxError("expected ')'", line2, col2)
            advance()
            return node
        raise FormulaSyntaxError(
            f"expected a constant, identifier, '!' or '(', got {value!r}" if kind != "end"
            else "unexpected end of formula",
            line,
            col,
        )

    node = parse_or()
    kind, value, line, col = peek()
    if kind != "end":
        raise FormulaSyntaxError(f"trailing input {value!r}", line, col)
    return node
