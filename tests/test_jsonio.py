import math

import numpy as np
import pytest

from fuzzydfa import TruthInterval
from fuzzydfa._jsonio import FileFormatError, dumps, dump_row, load_number, load_row, load_value


@pytest.mark.parametrize("value, text", [
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (1e16, "10000000000000000"),
    (0.1 + 0.2, "0.30000000000000004"),
    (0.5, "0.5"),
])
def test_dumps_prints_floats_at_17_digits_alone_and_in_rows(value, text):
    assert dumps(value) == text
    assert dumps([value]) == f"[{text}]"
    assert dumps([0.5, value, 1.0]) == f"[0.5, {text}, 1]"
    assert dumps([[value, 1.0], [0.25, value]]) == f"[[{text}, 1], [0.25, {text}]]"
    assert dumps(TruthInterval(0.0, 1.0)) == "[0, 1]"


def test_dumps_keeps_ints_bools_and_nesting_apart():
    assert dumps([1, 0.5]) == "[1, 0.5]"
    assert dumps([0.5, 1]) == "[0.5, 1]"
    assert dumps([True, False, 0.5]) == "[true, false, 0.5]"
    assert dumps([1.0, True]) == "[1, true]"
    assert dumps([]) == "[]"
    assert dumps([[]]) == "[[]]"
    assert dumps([[0.5], [0.25, 0.5, 0.75]]) == "[[0.5], [0.25, 0.5, 0.75]]"
    assert dumps([(0.5, 0.25)]) == "[[0.5, 0.25]]"
    assert dumps([[0.5, 1]]) == "[[0.5, 1]]"
    assert dumps([np.float64(0.1), 0.5]) == "[0.10000000000000001, 0.5]"
    assert dumps(
        {"a": [TruthInterval(0.25, 0.5), 0.5], "b": None, 'q"': "xé"}
    ) == '{"a": [[0.25, 0.5], 0.5], "b": null, "q\\"": "x\\u00e9"}'


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps([0.5, object()])


def test_load_row_equals_load_value_on_every_entry():
    for raw, interval in [
        ([0.0, 0.5, 1.0, -0.0, 1e-300], False),
        ([0, 1, 0.5], False),
        ([1.0 + 1e-13, 0.5], False),
        ([[0.0, 0.5], 0.25, [-0.0, 1]], True),
        # Rows of [float, float] pairs only, which skip load_value.
        ([[0.0, 0.5], [-0.0, -0.0], [0.25, 0.25], [1e-300, 1.0]], True),
        ([[0.0, 0.5], [0.5, 1.0 + 1e-13]], True),
    ]:
        want = [load_value(v, "row", interval=interval) for v in raw]
        got = load_row(raw, "row", interval=interval)
        assert got == want
        for a, b in zip(got, want):
            a, b = (a, b) if not interval else ((a.lo, a.hi), (b.lo, b.hi))
            assert repr(a) == repr(b)
    assert math.copysign(1.0, load_row([-0.0], "row", interval=False)[0]) == 1.0


def test_load_row_errors_name_the_entry():
    with pytest.raises(FileFormatError, match=r"^dee\['b1'\]\[1\]: "):
        load_row([0.5, 1.5], "dee['b1']", interval=False)
    with pytest.raises(FileFormatError, match=r"^kill\['b1'\]\[0\]: expected a number"):
        load_row(["0.5"], "kill['b1']", interval=False)


def test_dump_row_lists_interval_ends():
    assert dump_row([TruthInterval(0.25, 0.5), 0.5]) == [[0.25, 0.5], 0.5]


@pytest.mark.parametrize("raw, message", [
    (["0.2", True], r"^x\[0\]: expected a number, got '0.2'$"),
    ([0.2, True], r"^x\[1\]: expected a number, got True$"),
    ([False, 1], r"^x\[0\]: expected a number, got False$"),
    ([0.2, None], r"^x\[1\]: expected a number, got None$"),
    ([float("nan"), 0.5], r"^x: not a truth value in \[0,1\]: nan$"),
    ([0.2, 10**400], r"^x\[1\]: integer too large for a float$"),
    ([0.5, 0.2], r"^x: interval endpoints out of order"),
])
def test_interval_pairs_take_numbers_only(raw, message):
    with pytest.raises(FileFormatError, match=message):
        load_value(raw, "x", interval=True)
    with pytest.raises(FileFormatError, match=message.replace("x", r"x\[3\]", 1)):
        load_row([0.0, 0.0, 0.0, raw], "x", interval=True)
    with pytest.raises(FileFormatError, match=message.replace("x", r"x\[1\]", 1)):
        load_row([[0.0, 0.0], raw, [0.5, 0.5]], "x", interval=True)  # pairs only


@pytest.mark.parametrize("raw, integer, message", [
    (True, False, "expected a number, got True"),
    ("1", False, "expected a number, got '1'"),
    (None, False, "expected a number, got None"),
    (float("inf"), False, "expected a finite number, got inf"),
    (2.0, True, "expected an integer, got 2.0"),
    (True, True, "expected an integer, got True"),
])
def test_load_number_rejects_what_it_would_coerce(raw, integer, message):
    with pytest.raises(FileFormatError, match=f"^n: {message}$"):
        load_number(raw, "n", integer=integer)
    assert load_number(3, "n") == 3.0 and type(load_number(3, "n")) is float
    assert load_number(3, "n", integer=True) == 3
