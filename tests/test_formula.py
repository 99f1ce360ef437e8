import hashlib
import random

import pytest

from fuzzydfa import (
    And,
    Const,
    FormulaSyntaxError,
    LogicFamily,
    Not,
    Or,
    TruthInterval,
    UnboundVariableError,
    Var,
    evaluate,
    evaluate_interval,
    format_formula,
    free_vars,
    parse_formula,
)
from conftest import random_family, random_formula

MINMAX = LogicFamily.minmax()


def test_eval_branch_formula_at_zero_input():
    f = parse_formula("0.8 & (!In | !0.7)")
    assert evaluate(f, MINMAX, {"In": 0.0}) == pytest.approx(0.8)
    # min(0.8, max(1 - 0.5, 0.3)) = 0.5 at In = 0.5
    assert evaluate(f, MINMAX, {"In": 0.5}) == pytest.approx(0.5)


def test_eval_variable_is_identity():
    for family in [MINMAX, LogicFamily.product(), LogicFamily.frank(3.0)]:
        for t in [0.0, 0.31, 1.0]:
            assert evaluate(Var("x"), family, {"x": t}) == t


def test_excluded_middle_fails():
    f = Or(Var("x"), Not(Var("x")))
    assert evaluate(f, MINMAX, {"x": 0.4}) == pytest.approx(0.6)


def test_unbound_variable_error():
    with pytest.raises(UnboundVariableError) as err:
        evaluate(And(Var("a"), Var("missing")), MINMAX, {"a": 0.5})
    assert err.value.name == "missing"


def test_eval_interval_examples():
    v = {"x": TruthInterval(0.2, 0.9), "y": TruthInterval(1.0, 1.0)}
    assert evaluate_interval(Var("x"), MINMAX, v) == TruthInterval(0.2, 0.9)
    negated = evaluate_interval(Not(Var("x")), MINMAX, v)
    assert negated.lo == pytest.approx(0.1, abs=1e-15)
    assert negated.hi == pytest.approx(0.8, abs=1e-15)
    top = evaluate_interval(Or(Var("z"), Var("y")), MINMAX, {**v, "z": TruthInterval(0.0, 1.0)})
    assert top == TruthInterval(1.0, 1.0)


def test_interval_constants_only_in_interval_mode():
    f = Const(TruthInterval(0.2, 0.4))
    assert evaluate_interval(f, MINMAX, {}) == TruthInterval(0.2, 0.4)
    with pytest.raises(TypeError):
        evaluate(f, MINMAX, {})


def test_free_vars():
    assert free_vars(Const(0.5)) == frozenset()
    assert free_vars(And(Var("a"), Not(Var("b")))) == {"a", "b"}
    assert free_vars(Or(Var("a"), Var("a"))) == {"a"}


# -- parser ---------------------------------------------------------------------


def test_parse_precedence():
    f = parse_formula("a | b & !c")
    assert f == Or(Var("a"), And(Var("b"), Not(Var("c"))))
    g = parse_formula("(a | b) & c")
    assert g == And(Or(Var("a"), Var("b")), Var("c"))
    assert parse_formula("!!a") == Not(Not(Var("a")))
    assert parse_formula("0.25") == Const(0.25)


def test_parse_binary_connectives_fold_left():
    assert parse_formula("a & b & c") == And(And(Var("a"), Var("b")), Var("c"))
    assert parse_formula("a | b | c") == Or(Or(Var("a"), Var("b")), Var("c"))


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("a & ", 1, 5),
        ("(a | b", 1, 7),
        ("a @ b", 1, 3),
        ("a b", 1, 3),
        ("1.5", 1, 1),
        ("a &\n& b", 2, 1),
    ],
)
def test_parse_errors_carry_position(text, line, col):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_format_parse_round_trip():
    rng = random.Random(23)
    for _ in range(300):
        f = random_formula(rng, ["In", "x", "longer_name"], depth=5)
        assert parse_formula(format_formula(f)) == f


def test_variables_need_a_name():
    with pytest.raises(ValueError, match=r"^variable name must be nonempty$"):
        Var("")


def test_interval_constants_have_no_text_form():
    with pytest.raises(TypeError, match=r"^interval constants have no text form$"):
        format_formula(Not(Const(TruthInterval(0.2, 0.4))))


@pytest.mark.parametrize("use", [lambda f: evaluate(f, MINMAX, {"a": 0.5}),
                                 lambda f: evaluate_interval(f, MINMAX, {"a": 0.5}),
                                 format_formula], ids=["evaluate", "interval", "format"])
def test_a_node_that_is_not_a_formula_is_named(use):
    with pytest.raises(TypeError, match=r"^not a formula node: 'b'$"):
        use(And(Var("a"), "b"))


def test_format_uses_minimal_parens():
    f = And(Const(0.8), Or(Not(Var("In")), Not(Const(0.7))))
    assert format_formula(f) == "0.8 & (!In | !0.7)"


# -- semantic properties -----------------------------------------------------------


def test_formula_evaluation_is_non_expansive():
    # The structural induction bounds a formula *tree* by the sum of leaf
    # perturbations, so each variable may contribute only once: with repeats,
    # a & a is a^2 under the product logic, whose slope reaches 2.
    rng = random.Random(29)
    for _ in range(1500):
        family = random_family(rng)
        names = ["a", "b", "c", "d", "e"]
        f = random_formula(rng, names, depth=4, linear=True)
        v1 = {n: rng.random() for n in names}
        v2 = {}
        budget = 0.0
        for n in names:
            moved = min(1.0, max(0.0, v1[n] + rng.uniform(-0.4, 0.4)))
            v2[n] = moved
            budget += abs(moved - v1[n])
        delta = abs(evaluate(f, family, v2) - evaluate(f, family, v1))
        assert delta <= budget + 1e-12


def test_repeated_variables_break_the_bound_outside_minmax():
    f = And(Var("a"), Var("a"))
    product = LogicFamily.product()
    hi = evaluate(f, product, {"a": 1.0})
    lo = evaluate(f, product, {"a": 0.5})
    assert hi - lo == pytest.approx(0.75)  # budget would be 0.5


def test_minmax_is_non_expansive_even_with_shared_variables():
    # min/max/1-x are 1-Lipschitz in the sup norm, so sharing is harmless
    # in the min-max family specifically.
    rng = random.Random(41)
    for _ in range(800):
        names = ["a", "b"]
        f = random_formula(rng, names, depth=5)
        v1 = {n: rng.random() for n in names}
        v2 = {}
        budget = 0.0
        for n in names:
            moved = min(1.0, max(0.0, v1[n] + rng.uniform(-0.4, 0.4)))
            v2[n] = moved
            budget += abs(moved - v1[n])
        delta = abs(evaluate(f, MINMAX, v2) - evaluate(f, MINMAX, v1))
        assert delta <= budget + 1e-12


def test_point_evaluation_lands_inside_interval_evaluation():
    rng = random.Random(31)
    for _ in range(500):
        family = random_family(rng)
        names = ["a", "b"]
        f = random_formula(rng, names, depth=4)
        box = {}
        point = {}
        for n in names:
            lo, hi = sorted((rng.random(), rng.random()))
            box[n] = TruthInterval(lo, hi)
            point[n] = rng.uniform(lo, hi)
        outer = evaluate_interval(f, family, box)
        inner = evaluate(f, family, point)
        assert outer.lo - 1e-9 <= inner <= outer.hi + 1e-9


def test_negation_free_evaluation_is_monotone():
    rng = random.Random(37)
    for _ in range(500):
        family = random_family(rng)
        names = ["a", "b", "c"]
        # negation-free: only And/Or/Var/Const
        def gen(depth):
            if depth <= 0 or rng.random() < 0.3:
                return Var(rng.choice(names)) if rng.random() < 0.7 else Const(rng.random())
            ctor = And if rng.random() < 0.5 else Or
            return ctor(gen(depth - 1), gen(depth - 1))

        f = gen(4)
        v1 = {n: rng.random() for n in names}
        v2 = {n: min(1.0, v1[n] + rng.random() * (1.0 - v1[n])) for n in names}
        assert evaluate(f, family, v2) >= evaluate(f, family, v1) - 1e-12


# Fragments of the random parser corpus: tokens, operators, ASCII and Unicode
# whitespace (only "\n" starts a line), a non-ASCII digit and numbers out of
# range; then pieces the lexer rejects, drawn one time in 40.
_CORPUS_PIECES = [
    "a", "In", "x_1", "_", "0", "1", "0.5", "1.0", "2", "1e-3", "0.25e1",
    "!", "&", "|", "(", ")", "a & b", "!(a | 0.3)", " ", "  ", "\t", "\n", "\r\n", "\n\n",
    "\x0b", "\u00a0", "\u2028", "\u0663",
]
_CORPUS_BAD = ["#", "$", "@", ",", "\u00e9", "7.", ".5"]


def _parse_outcome(text: str) -> str:
    try:
        return repr(parse_formula(text))
    except FormulaSyntaxError as exc:
        return f"error {str(exc)!r} {exc.line} {exc.col}"


def test_parse_outcomes_on_random_corpus_are_frozen():
    # The digest pins every formula repr, error message, line and column.
    rng = random.Random(2017)
    digest = hashlib.sha256()
    errors = 0
    for _ in range(20_000):
        pieces = [rng.choice(_CORPUS_BAD if rng.random() < 0.025 else _CORPUS_PIECES)
                  for _ in range(rng.randrange(16))]
        outcome = _parse_outcome("".join(pieces))
        errors += outcome.startswith("error")
        digest.update(outcome.encode() + b"\0")
    assert 0 < errors < 20_000
    assert digest.hexdigest() == "e86b943ad7d87a32f47655e4160c6d8163e8da9b9bdb9e800637d60e7497f881"
