import math
import random
import warnings
from functools import partial

import numpy as np
import pytest

from fuzzydfa import (
    And, LogicFamily, Not, Or, SolverConfig, TruthInterval, TruthValueError, Var, evaluate_interval,
    quantize, truth_value,
)
from fuzzydfa.truth import _snap
from conftest import FAMILIES, on_numpy_loops, random_family

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

# The array T-norm is the scalar's formula, ``LogicFamily._tnorm``, run on numpy
# arrays, as LCM runs it.  It gives the scalar's bits for every family, but for
# Frank off the product band only on numpy's baseline loops: those cases are
# checked bit for bit in a child process (``baseline_loop``) and here within
# TNORM_TOL.

# Every conftest family, nilpotent, Frank inside the product band (evaluated
# as x*y) and Frank at random log-uniform parameters.
ARRAY_FAMILIES = (
    FAMILIES
    + [LogicFamily.nilpotent(), LogicFamily.frank(1.0 + 5e-7), LogicFamily.frank(1.0 - 5e-7)]
    + [LogicFamily.frank(10 ** random.Random(f"tnorm_array/{i}").uniform(-3, 3)) for i in range(4)]
)
NUMPY_LOOP_FAMILIES = [family for family in ARRAY_FAMILIES if on_numpy_loops(family)]
EDGE_DEGREES = [0.0, 1.0, 1e-300, 1.0 - 1e-16]
SMALLEST_S = [2.0**-28, math.nextafter(2.0**-28, 1.0), 4e-9, 1e-8, 1e-6]
# How far the array T-norm on numpy's SIMD loops may be from the scalar one.
# The largest distance seen on AVX-512 is 1e-14 (s = 3.8e-5, 1500 random
# pairs), and at every s the two are as far from a 50-digit evaluation (see
# the Frank oracle below).
TNORM_TOL = 1e-13


def scalar_tnorms(family: LogicFamily, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    flat = [family.tnorm(a, b) for a, b in zip(x.ravel().tolist(), y.ravel().tolist())]
    return np.array(flat).reshape(x.shape)


def array_tnorms(family: LogicFamily) -> tuple[np.ndarray, np.ndarray]:
    """The array and the scalar T-norm of 3000 random pairs and the edge
    degrees', in the engine's (rows, exprs, w) shape."""
    rng = random.Random(f"tnorm_array/{family}")
    xs = [rng.random() for _ in range(3000)] + [a for a in EDGE_DEGREES for _ in EDGE_DEGREES]
    ys = [rng.random() for _ in range(3000)] + [b for _ in EDGE_DEGREES for b in EDGE_DEGREES]
    x = np.array(xs).reshape(-1, 4, 2)
    y = np.array(ys).reshape(-1, 4, 2)
    got = family._tnorm(x, y, np)
    assert got.dtype == np.float64 and got.shape == x.shape
    return got, scalar_tnorms(family, x, y)


def column_sliced_tnorms(family: LogicFamily) -> tuple[np.ndarray, np.ndarray]:
    """A fixed point keeps its constant operand over the solve and slices it,
    as it does each sweep's rows, as expression columns converge: the array
    T-norms of such operands, sweep after sweep, and the scalar ones."""
    rng = random.Random(f"tnorm_terms/{family}")
    x = np.array([rng.random() for _ in range(3 * 8 * 8 * 2)]).reshape(3, 8, 8, 2)
    y = np.array([rng.random() for _ in range(6 * 8 * 2)] + EDGE_DEGREES * 8).reshape(8, 8, 2)
    columns, got, want = np.arange(8), [], []
    for sweep in x:
        sweep = sweep[:, columns]
        got.append(family._tnorm(sweep, y[:, columns], np).ravel())
        want.append(scalar_tnorms(family, sweep, y[:, columns]).ravel())
        columns = columns[1:]  # a column converged
    return np.concatenate(got), np.concatenate(want)


def smallest_tnorms(s: float) -> tuple[np.ndarray, np.ndarray]:
    """The array and the scalar Frank T-norm at parameter ``s``."""
    family = LogicFamily.frank(s)
    rng = random.Random(f"frank-small/{s}")
    xs = [rng.random() for _ in range(2000)] + [1.0, 1.0, 1.0 - 1e-16, 0.0, 1e-300]
    ys = [rng.random() for _ in range(2000)] + [1.0, 0.5, 1.0 - 1e-16, 1.0, 1.0]
    got = family._tnorm(np.array(xs), np.array(ys), np)
    return got, np.array([family.tnorm(x, y) for x, y in zip(xs, ys)])


# The cases ``baseline_loop`` checks bit for bit on numpy's baseline loops.
NUMPY_LOOP_CASES = {
    **{f"array/{family}": partial(array_tnorms, family) for family in NUMPY_LOOP_FAMILIES},
    **{f"columns/{family}": partial(column_sliced_tnorms, family) for family in NUMPY_LOOP_FAMILIES},
    **{f"smallest/{s!r}": partial(smallest_tnorms, s) for s in SMALLEST_S},
}


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    # Integer views tell -0.0 from 0.0.
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def assert_close_in_unit_interval(got: np.ndarray, want: np.ndarray) -> None:
    assert np.abs(got - want).max() <= TNORM_TOL
    assert ((got >= 0.0) & (got <= 1.0)).all() and not np.signbit(got).any()


@pytest.mark.parametrize("family", ARRAY_FAMILIES, ids=str)
def test_tnorm_array_matches_scalar_bit_for_bit(family, request):
    """Frank off the product band on numpy's baseline loops."""
    if on_numpy_loops(family):
        assert request.getfixturevalue("libm_baseline")["tnorm"][f"array/{family}"]
    else:
        assert_same_bits(*array_tnorms(family))


@pytest.mark.parametrize("family", ARRAY_FAMILIES, ids=str)
def test_tnorm_of_column_sliced_operands_matches_scalar_bit_for_bit(family, request):
    """Frank off the product band on numpy's baseline loops."""
    if on_numpy_loops(family):
        assert request.getfixturevalue("libm_baseline")["tnorm"][f"columns/{family}"]
    else:
        assert_same_bits(*column_sliced_tnorms(family))


@pytest.mark.parametrize("family", NUMPY_LOOP_FAMILIES, ids=str)
def test_frank_tnorm_array_is_within_tolerance_of_scalar_on_the_default_loop(family):
    assert_close_in_unit_interval(*array_tnorms(family))
    assert_close_in_unit_interval(*column_sliced_tnorms(family))


@pytest.mark.parametrize("family", NUMPY_LOOP_FAMILIES, ids=str)
def test_frank_tnorm_array_of_negative_zero_is_zero(family):
    """As the scalar, which reads -0.0 as 0.0: the formula carries the sign of
    zero through, and the clamp turns it to +0.0."""
    x = np.array([-0.0, -0.0, 0.5, 1.0, -0.0])
    y = np.array([-0.0, 0.5, -0.0, -0.0, 1.0])
    got = family._tnorm(x, y, np)
    assert_same_bits(got, scalar_tnorms(family, x, y))


def test_tnorm_array_overflows_silently_like_the_scalar():
    family = LogicFamily.frank(1e300)
    x = np.array([1.0, 0.5, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = family._tnorm(x, x, np)
    assert np.array_equal(got.view(np.int64), scalar_tnorms(family, x, x).view(np.int64))


def test_families_that_do_not_reorder_keep_ordered_pairs_ordered():
    """What ``LogicFamily._reorders`` states: every T-norm but Frank's is
    monotone in floating point, on floats and on arrays, so an interval's
    ends never need re-sorting after it."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    families = [family for family in ARRAY_FAMILIES if not family._reorders]
    assert {family.kind for family in families} == {"minmax", "product", "lukasiewicz",
                                                    "nilpotent"}
    degrees = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [0.0, 1.0, 5e-324, 1.5e-323, 2.2250738585072014e-308, 0.5, 0.5 - 2.0**-54,
         0.5 + 2.0**-53, 1.0 - 2.0**-53, 1.0 - 2.0**-52]))

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None,
              suppress_health_check=list(HealthCheck))
    @given(st.lists(degrees, min_size=4, max_size=4))
    def check(values):
        (x0, x1), (y0, y1) = sorted(values[:2]), sorted(values[2:])
        for family in families:
            assert family._tnorm(x0, y0) <= family._tnorm(x1, y1), family
            lo, hi = family._tnorm(np.array([x0, x1]), np.array([y0, y1]), np)
            assert lo <= hi, family

    check()


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


@pytest.mark.parametrize("q", range(1, 54))
def test_the_array_grid_is_quantize_bit_for_bit(q):
    """``_snap`` on numpy, as the soft engine snaps, gives ``quantize``'s bits:
    at ties (k + 1/2)/2^q, near 0 and 1, and at random degrees.  Both equal
    min(1, round(x 2^q) / 2^q): on degrees the clamp never acts."""
    scale = 2.0**q
    rng = random.Random(f"grid/{q}")
    ties = [(k + 0.5) / scale for k in sorted({0, 1, 2, 3, 2**q - 3, 2**q - 2, 2**q - 1})
            if 0 <= k < 2**q]
    top = 1.0 - 0.5 / scale
    xs = ties + [0.0, 5e-324, 0.5 / scale, 1.0, 1.0 - 2.0**-53, top, math.nextafter(top, 0.0),
                 math.nextafter(top, 1.0)] + [rng.random() for _ in range(200)]
    want = [quantize(x, q) for x in xs]
    assert_same_bits(_snap(np.array(xs), q, np), np.array(want))
    assert want == [min(1.0, round(x * scale) / scale) for x in xs]


@pytest.mark.parametrize("q", [2.5, 2.0, True, np.int64(2)])
def test_quantize_takes_only_an_integer_level(q):
    """As ``SolverConfig.quantize_bits``: a float level is off the {i/2^q} grid,
    and True is no level."""
    with pytest.raises(ValueError, match=r"^quantization level must be an integer >= 1, got "):
        quantize(0.3, q)


def test_quantize_levels_stop_where_the_grid_scale_overflows():
    """2.0**1023 is the last finite power of two, so every degree snaps at
    level 1023, where the grid is finer than the doubles; level 1024 and the
    solves that would use it are rejected, not left to overflow."""
    for x in (0.0, 2.0**-1023, 0.3, 1.0 - 2**-53, 1.0):
        assert quantize(x, 1023) == x
    assert quantize(2.0**-1024, 1023) == 0.0  # a tie, to even
    assert_same_bits(_snap(np.array([0.3, 1.0]), 1023, np), np.array([0.3, 1.0]))
    assert SolverConfig(quantize_bits=1023).quantize_bits == 1023
    with pytest.raises(ValueError, match=r"^quantization level must be <= 1023, got 1100$"):
        quantize(0.3, 1100)
    with pytest.raises(ValueError, match=r"^quantize_bits must be <= 1023, got 1024$"):
        SolverConfig(quantize_bits=1024)


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


@pytest.mark.parametrize("s", [2, np.float64(2.0)], ids=["int", "np.float64"])
def test_frank_parameter_is_held_as_a_float_that_prints_and_parses_back(s):
    family = LogicFamily("frank", s)
    assert type(family.s) is float and family == LogicFamily.frank(2.0)
    assert str(family) == str(LogicFamily.frank(s)) == "frank:2.0"
    assert LogicFamily.parse(str(family)) == family


@pytest.mark.parametrize("s", ["2", None, [2.0], pytest.param(10**400, id="10**400")], ids=repr)
def test_frank_rejects_a_non_number_with_the_named_error(s):
    """Also a number no float holds, which ``float`` would raise OverflowError for."""
    for make in (partial(LogicFamily, "frank"), LogicFamily.frank):
        with pytest.raises(ValueError, match=r"^frank parameter must be finite, >= 2\*\*-28"):
            make(s)


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


# -- Frank oracle -------------------------------------------------------------------

# Frank parameters log-uniform over [2**-28, 1e100], then the smallest accepted,
# 0.01, both sides of the product band (where both paths are x*y) and 1e100.
ORACLE_S = [
    2.0 ** random.Random(f"frank_oracle/{i}").uniform(-28.0, math.log2(1e100)) for i in range(10)
] + [2.0**-28, 0.01, 1.0 - 5e-7, 1.0 + 5e-7, 1e100]


@pytest.mark.parametrize("s", ORACLE_S)
def test_frank_array_and_scalar_tnorms_are_as_close_to_a_50_digit_evaluation(s):
    """The array T-norm on numpy's default loop is within TNORM_TOL of the
    scalar one, and never further than that from the exact T-norm than the
    scalar one is.  On AVX-512 the two paths' worst errors agree to 1.2e-15
    at every s, from 1.2e-16 at s = 3.3e89 to 7.7e-10 at s = 2**-28; at s = 2
    their mean errors are 0.68 and 0.70 ulp and their worst 3.3 and 3.4 ulp.
    The error is the formula's conditioning, not the loop's rounding."""
    mpmath = pytest.importorskip("mpmath")
    family = LogicFamily.frank(s)
    rng = random.Random(f"frank_oracle/{s!r}")
    xs = [rng.random() for _ in range(1000)] + [a for a in EDGE_DEGREES for _ in EDGE_DEGREES]
    ys = [rng.random() for _ in range(1000)] + [b for _ in EDGE_DEGREES for b in EDGE_DEGREES]
    x, y = np.array(xs), np.array(ys)
    array = family._tnorm(x, y, np)
    scalar = scalar_tnorms(family, x, y)
    assert np.abs(array - scalar).max() <= TNORM_TOL
    with mpmath.workdps(50):
        ms = mpmath.mpf(s)
        exact = [mpmath.log(1 + (ms**a - 1) * (ms**b - 1) / (ms - 1)) / mpmath.log(ms)
                 for a, b in zip(xs, ys)]
        array_err = np.array([float(abs(mpmath.mpf(v) - e)) for v, e in zip(array.tolist(), exact)])
        scalar_err = np.array([float(abs(mpmath.mpf(v) - e)) for v, e in zip(scalar.tolist(), exact)])
    assert (array_err <= scalar_err + TNORM_TOL).all()


@pytest.mark.parametrize("s", SMALLEST_S)
def test_frank_at_the_smallest_parameters_stays_in_the_unit_interval(s):
    got, scalar = smallest_tnorms(s)
    assert ((scalar >= 0.0) & (scalar <= 1.0)).all()
    assert_close_in_unit_interval(got, scalar)


@pytest.mark.parametrize("s", SMALLEST_S)
def test_frank_at_the_smallest_parameters_matches_scalar_bit_for_bit_on_the_baseline_loop(
        s, libm_baseline):
    assert libm_baseline["tnorm"][f"smallest/{s!r}"]
