import math
import random
import warnings

import numpy as np
import pytest

from fuzzydfa import (
    And, LogicFamily, Not, Or, TruthInterval, TruthValueError, Var, evaluate_interval, quantize,
    truth_value,
)
from conftest import FAMILIES, random_family

# log_2(1 + (2^0.5 - 1)^2), frozen from a 50-digit evaluation of the Frank
# formula (see test_frank_matches_high_precision_oracle).
FRANK2_HALF_HALF = 0.22844669683638802


def test_truth_value_accepts_unit_interval():
    assert truth_value(0.0) == 0.0
    assert truth_value(1.0) == 1.0
    assert truth_value(0.42) == 0.42


def test_truth_value_clamps_rounding_noise():
    assert truth_value(-1e-13) == 0.0
    assert truth_value(1.0 + 1e-13) == 1.0


@pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0, float("nan"), float("inf")])
def test_truth_value_rejects_out_of_range(bad):
    with pytest.raises(TruthValueError):
        truth_value(bad)


# -- table instances ---------------------------------------------------------


def test_minmax_tnorm():
    assert LogicFamily.minmax().tnorm(0.8, 0.3) == 0.3


def test_product_identity_element():
    fam = LogicFamily.product()
    for x in [0.0, 0.25, 0.7, 1.0]:
        assert fam.tnorm(x, 1.0) == x


def test_frank_2_at_half_half():
    assert LogicFamily.frank(2.0).tnorm(0.5, 0.5) == pytest.approx(FRANK2_HALF_HALF, abs=1e-12)


def test_frank_matches_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = random.Random(20240)
    for _ in range(200):
        s = 10 ** rng.uniform(-3, 3)
        if abs(s - 1.0) <= 1e-6:
            continue
        x, y = rng.random(), rng.random()
        ms = mpmath.mpf(s)
        expected = mpmath.log(1 + (ms**x - 1) * (ms**y - 1) / (ms - 1)) / mpmath.log(ms)
        got = LogicFamily.frank(s).tnorm(x, y)
        assert got == pytest.approx(float(expected), abs=1e-9)


def test_snorm_table_values():
    assert LogicFamily.minmax().snorm(0.8, 0.3) == 0.8
    assert LogicFamily.product().snorm(0.5, 0.5) == pytest.approx(0.75, abs=1e-15)
    assert LogicFamily.lukasiewicz().snorm(0.7, 0.5) == 1.0


def test_nilpotent_table_values():
    fam = LogicFamily.nilpotent()
    assert fam.tnorm(0.6, 0.7) == 0.6      # x + y > 1
    assert fam.tnorm(0.4, 0.5) == 0.0      # x + y <= 1
    assert fam.snorm(0.4, 0.5) == 0.5      # x + y < 1
    assert fam.snorm(0.6, 0.7) == 1.0


def test_cnorm():
    fam = LogicFamily.minmax()
    assert fam.cnorm(0.0) == 1.0
    assert fam.cnorm(1.0) == 0.0
    assert fam.cnorm(0.3) == pytest.approx(0.7, abs=1e-15)
    assert fam.cnorm(fam.cnorm(0.42)) == pytest.approx(0.42, abs=1e-15)


# -- algebraic axioms ----------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES + [LogicFamily.nilpotent()], ids=str)
def test_norm_axioms(family):
    rng = random.Random(7)
    for _ in range(300):
        x, y, z = rng.random(), rng.random(), rng.random()
        assert family.tnorm(x, 1.0) == pytest.approx(x, abs=1e-9)
        assert family.snorm(x, 0.0) == pytest.approx(x, abs=1e-9)
        assert family.tnorm(x, y) == pytest.approx(family.tnorm(y, x), abs=1e-12)
        assert family.snorm(x, y) == pytest.approx(family.snorm(y, x), abs=1e-12)
        assert family.tnorm(family.tnorm(x, y), z) == pytest.approx(
            family.tnorm(x, family.tnorm(y, z)), abs=1e-9
        )
        # monotonicity in the first argument
        x2 = min(1.0, x + rng.random() * (1.0 - x))
        assert family.tnorm(x2, y) >= family.tnorm(x, y) - 1e-12
        assert family.snorm(x2, y) >= family.snorm(x, y) - 1e-12
        assert 0.0 <= family.tnorm(x, y) <= 1.0
        assert 0.0 <= family.snorm(x, y) <= 1.0


def test_de_morgan_dual_is_exact_by_construction():
    rng = random.Random(11)
    for _ in range(500):
        family = random_family(rng)
        x, y = rng.random(), rng.random()
        direct = family.snorm(x, y)
        dual = family.cnorm(family.tnorm(family.cnorm(x), family.cnorm(y)))
        assert direct == dual


def test_de_morgan_other_direction_within_tolerance():
    rng = random.Random(13)
    grid = [i / 16 for i in range(17)]
    for family in FAMILIES:
        for x in grid:
            for y in grid:
                recovered = family.cnorm(family.snorm(family.cnorm(x), family.cnorm(y)))
                assert recovered == pytest.approx(family.tnorm(x, y), abs=1e-12)
    for _ in range(300):
        family = random_family(rng)
        x, y = rng.random(), rng.random()
        recovered = family.cnorm(family.snorm(family.cnorm(x), family.cnorm(y)))
        assert recovered == pytest.approx(family.tnorm(x, y), abs=1e-12)


def test_one_lipschitz_for_frank_family_norms():
    # The nilpotent family is deliberately absent: its T-norm jumps on x+y=1.
    rng = random.Random(17)
    for _ in range(2000):
        family = random_family(rng)
        x, y = rng.random(), rng.random()
        x2 = min(1.0, max(0.0, x + rng.uniform(-0.5, 0.5)))
        y2 = min(1.0, max(0.0, y + rng.uniform(-0.5, 0.5)))
        budget = abs(x2 - x) + abs(y2 - y) + 1e-12
        assert abs(family.tnorm(x2, y2) - family.tnorm(x, y)) <= budget
        assert abs(family.snorm(x2, y2) - family.snorm(x, y)) <= budget
        assert abs(family.cnorm(x2) - family.cnorm(x)) <= abs(x2 - x) + 1e-12


def test_nilpotent_tnorm_is_discontinuous_on_the_diagonal():
    fam = LogicFamily.nilpotent()
    assert fam.tnorm(0.5, 0.5 + 1e-9) == pytest.approx(0.5, abs=1e-8)
    assert fam.tnorm(0.5, 0.5 - 1e-9) == 0.0


def test_frank_near_one_matches_product():
    grid = [i / 8 for i in range(9)]
    near_product = LogicFamily.frank(1.0 + 1e-8)
    product = LogicFamily.product()
    for x in grid:
        for y in grid:
            assert near_product.tnorm(x, y) == pytest.approx(product.tnorm(x, y), abs=1e-6)


def test_frank_small_s_approaches_minmax():
    # The convergence rate toward min is Theta(1/ln(1/s)): the deviation at
    # x == y is ln(2 - s^x)/|ln s|, so the approach is slow and no double-
    # precision parameter gets below ~1e-2.  Assert the analytic envelope
    # and that shrinking s tightens it.
    grid = [i / 8 for i in range(9)]
    minmax = LogicFamily.minmax()
    last_worst = 1.0
    for s in [1e-3, 1e-5, 1e-7, 2.0**-28]:
        fam = LogicFamily.frank(s)
        bound = math.log(2.0) / abs(math.log(s)) + 1e-9
        worst = max(
            abs(fam.tnorm(x, y) - minmax.tnorm(x, y)) for x in grid for y in grid
        )
        assert worst <= bound
        assert worst <= last_worst
        last_worst = worst


def test_frank_large_s_approaches_lukasiewicz():
    grid = [i / 8 for i in range(9)]
    luka = LogicFamily.lukasiewicz()
    for s in [1e6, 1e9]:
        fam = LogicFamily.frank(s)
        bound = math.log(2.0) / math.log(s) + 1e-9
        for x in grid:
            for y in grid:
                assert abs(fam.tnorm(x, y) - luka.tnorm(x, y)) <= bound


# -- array T-norm -------------------------------------------------------------------

# The array T-norm is ``_tnorm_terms`` on its operands' ``_term``s, as LCM runs it.

# Every conftest family, nilpotent, Frank inside the product band (evaluated
# as x*y) and Frank at random log-uniform parameters.
ARRAY_FAMILIES = (
    FAMILIES
    + [LogicFamily.nilpotent(), LogicFamily.frank(1.0 + 5e-7), LogicFamily.frank(1.0 - 5e-7)]
    + [LogicFamily.frank(10 ** random.Random(f"tnorm_array/{i}").uniform(-3, 3)) for i in range(4)]
)
EDGE_DEGREES = [0.0, 1.0, 1e-300, 1.0 - 1e-16]


def scalar_tnorms(family: LogicFamily, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    flat = [family.tnorm(a, b) for a, b in zip(x.ravel().tolist(), y.ravel().tolist())]
    return np.array(flat).reshape(x.shape)


@pytest.mark.parametrize("family", ARRAY_FAMILIES, ids=str)
def test_tnorm_array_matches_scalar_bit_for_bit(family):
    rng = random.Random(f"tnorm_array/{family}")
    xs = [rng.random() for _ in range(3000)] + [a for a in EDGE_DEGREES for _ in EDGE_DEGREES]
    ys = [rng.random() for _ in range(3000)] + [b for _ in EDGE_DEGREES for b in EDGE_DEGREES]
    # The engine's shape: (rows, exprs, w).
    x = np.array(xs).reshape(-1, 4, 2)
    y = np.array(ys).reshape(-1, 4, 2)
    got = family._tnorm_terms(family._term(x), family._term(y))
    assert got.dtype == np.float64 and got.shape == x.shape
    # Integer views tell -0.0 from 0.0.
    assert np.array_equal(got.view(np.int64), scalar_tnorms(family, x, y).view(np.int64))


@pytest.mark.parametrize("family", ARRAY_FAMILIES, ids=str)
def test_tnorm_from_terms_computed_once_matches_scalar_bit_for_bit(family):
    """A fixed point computes ``_term`` of its constant operand once per solve
    and slices it as expression columns converge; every T-norm built on that
    term must still give the scalar's bits."""
    rng = random.Random(f"tnorm_terms/{family}")
    x = np.array([rng.random() for _ in range(3 * 8 * 8 * 2)]).reshape(3, 8, 8, 2)
    y = np.array([rng.random() for _ in range(6 * 8 * 2)] + EDGE_DEGREES * 8).reshape(8, 8, 2)
    y_term = family._term(y)  # once, for every sweep below
    columns = np.arange(8)
    for sweep in x:
        sweep = sweep[:, columns]
        got = family._tnorm_terms(family._term(sweep), y_term[:, columns])
        assert np.array_equal(got.view(np.int64), scalar_tnorms(family, sweep, y[:, columns]).view(np.int64))
        columns = columns[1:]  # a column converged


def test_tnorm_array_overflows_silently_like_the_scalar():
    family = LogicFamily.frank(1e300)
    x = np.array([1.0, 0.5, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = family._tnorm_terms(family._term(x), family._term(x))
    assert np.array_equal(got.view(np.int64), scalar_tnorms(family, x, x).view(np.int64))


# -- intervals ------------------------------------------------------------------


def test_interval_invariants():
    assert TruthInterval(0.0, 0.0).width == 0.0
    assert TruthInterval.degenerate(0.3) == TruthInterval(0.3, 0.3)
    with pytest.raises(TruthValueError):
        TruthInterval(0.6, 0.4)
    with pytest.raises(TruthValueError):
        TruthInterval(-0.5, 0.5)


def test_interval_turns_negative_zero_ends_positive():
    assert math.copysign(1.0, TruthInterval(-0.0, 0.5).lo) == 1.0
    both = TruthInterval(-0.0, -0.0)
    assert math.copysign(1.0, both.lo) == 1.0 and math.copysign(1.0, both.hi) == 1.0


def test_interval_ends_are_stored_as_float():
    for lo, hi in [(0, 1), (np.float64(0.25), np.float64(0.75)), (0, 0.5), (True, True)]:
        interval = TruthInterval(lo, hi)
        assert type(interval.lo) is float and type(interval.hi) is float
        assert (interval.lo, interval.hi) == (float(lo), float(hi))


def test_interval_clamps_rounding_noise():
    assert TruthInterval(0.5, 1.0 + 1e-13).hi == 1.0
    assert TruthInterval(-1e-13, 0.5).lo == 0.0


@pytest.mark.parametrize("lo, hi", [
    (float("nan"), 0.5), (0.2, float("nan")), (0.2, float("inf")), (float("-inf"), 0.5),
    (0.6, 0.4), (1.0, 0.0), (-0.01, 0.5), (0.5, 1.01),
])
def test_interval_rejects_bad_ends(lo, hi):
    with pytest.raises(TruthValueError):
        TruthInterval(lo, hi)


def test_interval_op_examples():
    # The interval connectives are reached through evaluate_interval.
    x, y = Var("x"), Var("y")
    fam = LogicFamily.minmax()
    v = {"x": TruthInterval(0.2, 0.4), "y": TruthInterval(0.3, 0.5)}
    assert evaluate_interval(And(x, y), fam, v) == TruthInterval(0.2, 0.4)
    assert evaluate_interval(Not(x), fam, {"x": TruthInterval(0.1, 0.6)}) == TruthInterval(0.4, 0.9)
    prod = LogicFamily.product()
    whole = {"x": TruthInterval(0, 1), "y": TruthInterval(0, 1)}
    assert evaluate_interval(And(x, y), prod, whole) == TruthInterval(0, 1)


def test_interval_ops_contain_pointwise_results():
    rng = random.Random(19)
    x, y = Var("x"), Var("y")
    for _ in range(500):
        family = random_family(rng)
        lx, ux = sorted((rng.random(), rng.random()))
        ly, uy = sorted((rng.random(), rng.random()))
        boxes = {"x": TruthInterval(lx, ux), "y": TruthInterval(ly, uy)}
        px = rng.uniform(lx, ux)
        py = rng.uniform(ly, uy)
        for f, point, slack in ((And(x, y), family.tnorm(px, py), 1e-9),
                                (Or(x, y), family.snorm(px, py), 1e-9),
                                (Not(x), family.cnorm(px), 1e-12)):
            box = evaluate_interval(f, family, boxes)
            assert box.lo - slack <= point <= box.hi + slack


# -- quantization ------------------------------------------------------------------


def test_quantize_examples():
    assert quantize(0.3, 2) == 0.25
    assert quantize(0.375, 2) == 0.5  # tie between 1/4 and 2/4 goes to even 2
    assert quantize(0.125, 2) == 0.0  # tie between 0/4 and 1/4 goes to even 0
    for x in [0.0, 0.5, 0.25, 0.75, 1.0, 1 / 1024]:
        assert quantize(x, 53) == x
    with pytest.raises(ValueError):
        quantize(0.5, 0)


# -- parsing ------------------------------------------------------------------------


def test_parse_family_strings():
    assert LogicFamily.parse("minmax") == LogicFamily.minmax()
    assert LogicFamily.parse("Product") == LogicFamily.product()
    assert LogicFamily.parse("lukasiewicz") == LogicFamily.lukasiewicz()
    assert LogicFamily.parse("nilpotent") == LogicFamily.nilpotent()
    assert LogicFamily.parse("frank:2.5") == LogicFamily.frank(2.5)
    assert str(LogicFamily.parse("frank:2.5")) == "frank:2.5"
    for text in ["bogus", "frank:", "frank:x", "frank:0", "frank:1", "frank:-3"]:
        with pytest.raises(ValueError):
            LogicFamily.parse(text)


@pytest.mark.parametrize("args, message", [
    (("x",), "unknown logic family 'x'"),
    (("product", 2.0), "product takes no parameter"),
])
def test_family_construction_errors_are_named(args, message):
    with pytest.raises(ValueError) as raised:
        LogicFamily(*args)
    assert str(raised.value) == message


def test_frank_construction_rejects_bad_parameters():
    for s in [0.0, -1.0, 1.0, float("inf"), float("nan")]:
        with pytest.raises(ValueError):
            LogicFamily.frank(s)


@pytest.mark.parametrize("s", [1e-17, 1e-300, 2.0**-54, math.nextafter(2.0**-53, 0.0)])
def test_frank_rejects_parameters_where_s_minus_1_rounds_to_minus_1(s):
    with pytest.raises(ValueError, match=r">= 2\*\*-28"):
        LogicFamily.frank(s)
    with pytest.raises(ValueError, match=r">= 2\*\*-28"):
        LogicFamily.parse(f"frank:{s!r}")


@pytest.mark.parametrize("s", [math.nextafter(2.0**-28, 0.0), 2.0**-29, 1e-9, 1e-12, 2.0**-53])
def test_frank_rejects_parameters_below_the_accuracy_bound(s):
    with pytest.raises(ValueError, match=r">= 2\*\*-28 \(~3\.7e-9\).*off by more than 1e-9"):
        LogicFamily.frank(s)


@pytest.mark.parametrize("s", [2.0**-28, 2.0**-24, 2.0**-20])
def test_frank_near_the_smallest_parameter_matches_high_precision_oracle(s):
    # The bound is the smallest power of two where this holds.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    family = LogicFamily.frank(s)
    ms = mpmath.mpf(s)
    grid = [i / 64 for i in range(65)]
    for x in grid:
        for y in grid:
            expected = mpmath.log(1 + (ms**x - 1) * (ms**y - 1) / (ms - 1)) / mpmath.log(ms)
            assert abs(family.tnorm(x, y) - float(expected)) <= 1e-9, (x, y)


@pytest.mark.parametrize("s", [2.0**-28, math.nextafter(2.0**-28, 1.0), 4e-9, 1e-8, 1e-6])
def test_frank_at_the_smallest_parameters_stays_in_the_unit_interval(s):
    family = LogicFamily.frank(s)
    rng = random.Random(f"frank-small/{s}")
    xs = [rng.random() for _ in range(2000)] + [1.0, 1.0, 1.0 - 1e-16, 0.0, 1e-300]
    ys = [rng.random() for _ in range(2000)] + [1.0, 0.5, 1.0 - 1e-16, 1.0, 1.0]
    scalar = np.array([family.tnorm(x, y) for x, y in zip(xs, ys)])
    assert ((scalar >= 0.0) & (scalar <= 1.0)).all()
    got = family._tnorm_terms(family._term(np.array(xs)), family._term(np.array(ys)))
    assert np.array_equal(got.view(np.int64), scalar.view(np.int64))
