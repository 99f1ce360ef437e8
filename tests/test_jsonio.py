import json
import math
import random

import numpy as np
import pytest

from fuzzydfa import LogicFamily, TruthInterval
from fuzzydfa._jsonio import FileFormatError, Settings, check_keys, dumps, load_number, load_value
from fuzzydfa.flowgraph import graph_from_json_dict
from fuzzydfa.lcm import problem_from_json_dict


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


def load_row(row: list, interval: bool, name: str = "dee") -> list:
    """Row ``b1`` of field ``name`` of a one-block LCM problem file, as the loader
    reads it; the problem's other rows are zeros."""
    rows = {field: {"b1": row if field == name else [0.0] * len(row)}
            for field in ("dee", "uee", "kill")}
    data = {"mode": "interval" if interval else "fuzzy", "blocks": ["b1"], "edges": [],
            "exprs": [f"e{k}" for k in range(len(row))], "entry": "b1", "exit": "b1", **rows}
    return getattr(problem_from_json_dict(data)[0], name)["b1"]


def test_load_row_equals_load_value_on_every_entry():
    for raw, interval in [
        ([0.0, 0.5, 1.0, -0.0, 1e-300], False),
        ([0, 1, 0.5], False),
        ([1.0 + 1e-13, 0.5], False),
        ([[0.0, 0.5], 0.25, [-0.0, 1]], True),
        # Rows of [float, float] pairs only.
        ([[0.0, 0.5], [-0.0, -0.0], [0.25, 0.25], [1e-300, 1.0]], True),
        ([[0.0, 0.5], [0.5, 1.0 + 1e-13]], True),
    ]:
        want = [load_value(v, "row", interval=interval) for v in raw]
        got = load_row(raw, interval)
        assert got == want
        for a, b in zip(got, want):
            a, b = (a, b) if not interval else ((a.lo, a.hi), (b.lo, b.hi))
            assert repr(a) == repr(b)
    assert math.copysign(1.0, load_row([-0.0], False)[0]) == 1.0
    assert math.copysign(1.0, load_value(-0.0, "x", interval=False)) == 1.0
    assert repr(load_row([[-0.0, -0.0]], True)[0]) == "TruthInterval(lo=0.0, hi=0.0)"


def test_load_row_errors_name_the_entry():
    with pytest.raises(FileFormatError, match=r"^dee\['b1'\]\[1\]: "):
        load_row([0.5, 1.5], False)
    with pytest.raises(FileFormatError, match=r"^kill\['b1'\]\[0\]: expected a number"):
        load_row(["0.5"], False, "kill")


@pytest.mark.parametrize("width", [1, 2, 7, 28])
def test_load_row_rejects_nan_and_out_of_range_entries_anywhere(width):
    rng = random.Random(width)
    for bad, message in [(math.nan, "not a truth value in [0,1]: nan"),
                         (-0.25, "not a truth value in [0,1]: -0.25"),
                         (1.5, "not a truth value in [0,1]: 1.5")]:
        for k in range(width):
            row = [rng.choice([0.0, 1.0, rng.random()]) for _ in range(width)]
            row[k] = bad
            with pytest.raises(FileFormatError) as raised:
                load_row(row, False)
            assert str(raised.value) == f"dee['b1'][{k}]: {message}"
            pairs = [[v, v] for v in row]
            with pytest.raises(FileFormatError) as raised:
                load_row(pairs, True)
            assert str(raised.value) == f"dee['b1'][{k}]: {message}"
    # Rounding noise outside [0, 1] is clamped, in bulk or not.
    assert load_row([0.5, -1e-13, 1.0 + 1e-13], False) == [0.5, 0.0, 1.0]
    assert load_value(1.0 + 1e-13, "x", interval=False) == 1.0


def test_check_keys_accepts_exact_keys_and_names_the_rest():
    check_keys({"b": 1, "a": 2}, "x", ["a", "b"])
    check_keys({"a": 1, "b": 2, "o": 3}, "x", ["a", "b"], ["o"])
    for obj, message in [
        ({"a": 1, "c": 2}, "x: missing keys ['b']"),
        ({"a": 1, "b": 2, "c": 3}, "x: unknown keys ['c']"),
        ({"a": 1, "o": 2}, "x: missing keys ['b']"),
        ([1, 2], "x: expected an object, got list"),
    ]:
        with pytest.raises(FileFormatError) as raised:
            check_keys(obj, "x", ["a", "b"], ["o"])
        assert str(raised.value) == message


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
    with pytest.raises(FileFormatError, match=message.replace("x", r"dee\['b1'\]\[3\]", 1)):
        load_row([0.0, 0.0, 0.0, raw], True)
    with pytest.raises(FileFormatError, match=message.replace("x", r"dee\['b1'\]\[1\]", 1)):
        load_row([[0.0, 0.0], raw, [0.5, 0.5]], True)  # pairs only


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


# -- the settings of both problem kinds -------------------------------------------

# Each problem kind with its modes in the message's order, its default mode
# and a bundled file that sets no mode.
PROBLEM_KINDS = pytest.mark.parametrize("load, name, modes, default", [
    (graph_from_json_dict, "fig1.json", ("scalar", "interval"), "scalar"),
    (problem_from_json_dict, "diffpcm_t1.json", ("crisp", "fuzzy", "interval"), "fuzzy"),
], ids=["graph", "lcm"])
BAD_SETTINGS = [
    ({"logic": "bogus"}, "logic: unknown logic family 'bogus'; expected minmax, product, "
                         "lukasiewicz, nilpotent or frank:<s>"),
    ({"logic": "frank:x"}, "logic: bad frank parameter in 'frank:x'"),
    ({"epsilon": "1e-6"}, "epsilon: expected a number, got '1e-6'"),
    ({"epsilon": None}, "epsilon: expected a number, got None"),
    ({"epsilon": math.inf}, "epsilon: expected a finite number, got inf"),
    ({"max_iters": 2.5}, "max_iters: expected an integer, got 2.5"),
    ({"max_iters": True}, "max_iters: expected an integer, got True"),
    ({"max_iters": "3"}, "max_iters: expected an integer, got '3'"),
    ({"mode": 3}, "mode: expected one of {modes}, got 3"),
    ({"mode": None}, "mode: expected one of {modes}, got None"),
    ({"mode": "bogus", "logic": "bogus"}, "mode: expected one of {modes}, got 'bogus'"),
]
BAD_SETTING_IDS = ["logic-unknown", "logic-frank", "epsilon-string", "epsilon-null", "epsilon-inf",
                   "iters-fraction", "iters-bool", "iters-string", "mode-int", "mode-null",
                   "mode-before-logic"]


def _problem(data_dir, name, **settings):
    data = json.loads((data_dir / name).read_text())
    data.pop("mode", None)
    return {**data, **settings}


@PROBLEM_KINDS
@pytest.mark.parametrize("settings, message", BAD_SETTINGS, ids=BAD_SETTING_IDS)
def test_both_problem_kinds_reject_bad_settings_alike(data_dir, load, name, modes, default,
                                                      settings, message):
    with pytest.raises(FileFormatError) as raised:
        load(_problem(data_dir, name, **settings))
    assert str(raised.value) == message.format(modes=modes)


@PROBLEM_KINDS
def test_each_problem_kind_takes_its_own_modes_only(data_dir, load, name, modes, default):
    assert load(_problem(data_dir, name))[1] == Settings(default, LogicFamily.minmax())
    for mode in modes:
        settings = {"mode": mode, "epsilon": 1, "max_iters": 7}
        assert load(_problem(data_dir, name, **settings))[1] == Settings(mode, LogicFamily.minmax(),
                                                                         1.0, 7)
    for mode in {"scalar", "crisp", "fuzzy", "interval"} - set(modes):
        with pytest.raises(FileFormatError) as raised:
            load(_problem(data_dir, name, mode=mode))
        assert str(raised.value) == f"mode: expected one of {modes}, got {mode!r}"


# -- the writer against a frozen reference ---------------------------------------


def reference_dumps(obj):
    """The per-value writer that ``dumps`` replaced, kept as an oracle:
    ``dumps`` must print every value byte for byte as this does."""
    from json.encoder import encode_basestring_ascii as quote

    parts = []

    def write(obj):
        if type(obj) is float:
            parts.append(format(obj, ".17g"))
        elif isinstance(obj, (list, tuple)):
            if all(type(v) is float for v in obj):
                parts.append("[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]")
            elif all(type(v) is list and len(v) == 2 and type(v[0]) is float
                     and type(v[1]) is float for v in obj):
                ends = tuple(x for pair in obj for x in pair)
                parts.append("[" + ", ".join(["[%.17g, %.17g]"] * len(obj)) % ends + "]")
            else:
                parts.append("[")
                for i, value in enumerate(obj):
                    if i:
                        parts.append(", ")
                    write(value)
                parts.append("]")
        elif isinstance(obj, dict):
            parts.append("{")
            for i, (key, value) in enumerate(obj.items()):
                if i:
                    parts.append(", ")
                parts.append(quote(str(key)))
                parts.append(": ")
                write(value)
            parts.append("}")
        elif isinstance(obj, str):
            parts.append(quote(obj))
        elif isinstance(obj, TruthInterval):
            write([obj.lo, obj.hi])
        elif isinstance(obj, bool):
            parts.append("true" if obj else "false")
        elif obj is None:
            parts.append("null")
        elif isinstance(obj, int):
            parts.append(repr(obj))
        elif isinstance(obj, float):
            parts.append(format(obj, ".17g"))
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")

    write(obj)
    return "".join(parts)


class Degree(float):
    """A float subclass: printed by ``format``, not by a ``%.17g`` slot."""

    def __format__(self, spec):
        return "%deg" + float.__format__(self, spec)


class Text(str):
    """A str subclass: written by the per-value path, not as a record column."""


class Record(dict):
    """A dict subclass: never one of a set of records."""


class Count(int):
    def __repr__(self):
        return f"%d{int(self)}%"


NAN, INF = float("nan"), float("inf")
WRITER_CASES = [
    {"100%": "%s %% %d %(x)s %", "%%": ["%", "%%"], "a%b": 0.5},
    ["%.17g", 0.25, "%"],
    [-0.0, NAN, INF, -INF, 5e-324, 1e16, 0.1 + 0.2],
    [[-0.0, NAN], [INF, -INF]],
    [0.5, 1, 0.25], [1, 0.5], [0.5, True], [True, 0.5], [0.5, False, None],
    [[0.5, 1], [0.25, 0.75]], [[0.5, True], [0.25, 0.75]],
    (0.5, 0.25), [(0.5, 0.25), (0.75, 1.0)], ((0.5, 0.25),), [[0.5, 0.25], (0.75, 1.0)],
    [TruthInterval(0.25, 0.5), TruthInterval(0.0, 1.0)], [TruthInterval(0.0, 0.0), 0.5],
    {"a": TruthInterval(0.5, 0.5)},
    [], {}, [[]], [{}], [[], []], {"": []}, [[[]]],
    [[0.5], [0.25, 0.5, 0.75]], [[0.5, 0.25], [0.75]], [[0.5, 0.25, 0.75], [0.0, 1.0, 0.5]],
    [[0.5, 0.25], [0.75, 1.0, 0.5]], [[0.5, 0.25], 0.75],
    [Degree(0.5), 0.25], Degree(0.1), [[Degree(0.5), 0.25]], [np.float64(0.1), 0.5],
    [Count(3), 0.5], {"n": Count(7)},
    {1: 0.5, 2: [0.25], None: "x", True: False, 0.5: 1.5},
    [[[[[[{"deep": [[[0.5, [0.25, {"%": "%%"}]]]]}]]]]]],
    {"mode": "fuzzy", "rows": {"b0": [0.5, 0.25], "b1": [0.0, 1.0]},
     "edges": [{"from": "b0", "to": "b1", "values": [[0.0, 0.5], [0.25, 1.0]]}],
     "converged": True},
    "é%\n\"\\", 12345678901234567890, -0.0, NAN, True, None, 0.5, 3,
    # Tables: dicts whose values are rows of one length, written in one step.
    {"100%": [0.5, 0.25], 'q"': [1.0, 0.0], "%s": [0.75, 0.125], "\0%": [0.0, 1.0]},
    {"a%%": [[0.5, 0.75], [0.0, 1.0]], '"b"': [[0.25, 0.25], [NAN, INF]]},
    {"a": [0.5, 0.25], "b": [0.75]}, {"a": [[0.5, 0.75]], "b": [[0.5, 0.75], [0.0, 1.0]]},
    {"a": [[0.5, 0.75]], "b": [[0.5, 0.75, 0.25]]}, {"a": [0.5], "b": [[0.5, 0.75]]},
    {"a": [0.5, 1], "b": [0.25, 0.75]}, {"a": [0.5, True], "b": [0.25, 0.75]},
    {"a": [0.5, -0.0], "b": [NAN, 0.75]}, {"a": [Degree(0.5), 0.25], "b": [0.25, 0.75]},
    {"a": [[0.5, 1], [0.0, 1.0]], "b": [[0.5, 0.75], [0.0, 1.0]]},
    {"a": [[0.5, Degree(1.0)]], "b": [[0.5, 0.75]]}, {"a": [(0.5, 0.75)], "b": [[0.5, 0.75]]},
    {"a": [], "b": []}, {"a": [0.5], "b": (0.25,)}, {"a": [0.5, 0.25], "b": "x"},
    {1: [0.5], None: [0.25], True: [1.0], 0.5: [0.0]}, {"a": [TruthInterval(0.5, 0.75)]},
    # Records: lists of dicts with the same keys in the same order.
    [{"from": "b0", "to": "b1", "values": [0.5, 0.25]},
     {"from": "b%1", "to": 'b"2', "values": [-0.0, NAN]}],
    [{"from": "b0", "to": "b1", "values": [[0.5, 0.75]]},
     {"from": "b1", "to": "b2", "values": [[0.0, 1.0]]}],
    [{"from": "b0", "to": "b1", "values": [0.5]}, {"to": "b2", "from": "b1", "values": [0.25]}],
    [{"from": "b0", "to": "b1", "values": [0.5]},
     {"from": "b1", "to": "b2", "values": [0.25], "x": 1}],
    [{"from": "b0", "to": "b1", "values": [0.5]}, {"from": "b1", "values": [0.25]}],
    [{"from": 0, "to": "b1", "values": [0.5]}, {"from": 1, "to": "b2", "values": [0.25]}],
    [{"from": "b0", "to": "b1", "values": [0.5]}, {"from": None, "to": "b2", "values": [0.25]}],
    [{"from": "b0", "a": [0.5, 0.25], "b": [[0.5, 0.75]]},
     {"from": "b1", "a": [1.0, 0.0], "b": [[0.0, 0.0]]}],
    [{"%k": "v%", 'q"': [0.5], 3: "é"}], [{"values": []}, {"values": []}], [{}, {}],
    [{"values": [0.5]}, {"values": [0.5, 0.25]}], [{"values": [0.5]}, {"values": [1]}],
    [{"a": "x"}, {"a": Text("y")}], [{"a": [0.5]}, Record(a=[0.25])], ({"a": [0.5]},),
]


@pytest.mark.parametrize("value", WRITER_CASES, ids=range(len(WRITER_CASES)))
def test_dumps_matches_the_reference_writer(value):
    assert dumps(value) == reference_dumps(value)


def test_dumps_rejects_what_the_reference_rejects():
    for value in ([0.5, object()], {"a": [0.25, {1, 2}]}, b"x", [[0.5, 0.25], [0.75, b"x"]]):
        with pytest.raises(TypeError) as want:
            reference_dumps(value)
        with pytest.raises(TypeError) as got:
            dumps(value)
        assert str(got.value) == str(want.value)


def _json_like():
    from hypothesis import strategies as st

    floats = st.floats(allow_nan=True, allow_infinity=True)
    unit = st.floats(0.0, 1.0)
    texts = st.text(alphabet=st.sampled_from('ab%"\\\né\x00 '), max_size=6)
    scalars = st.one_of(
        floats, floats, unit, st.integers(-10**20, 10**20), st.booleans(), st.none(), texts,
        floats.map(Degree), st.integers(-5, 5).map(Count),
        st.tuples(unit, unit).map(lambda p: TruthInterval(min(p), max(p))),
    )
    rows = st.one_of(
        st.lists(floats, max_size=5),
        st.lists(st.lists(floats, min_size=2, max_size=2), max_size=4),
        st.lists(st.lists(floats, min_size=1, max_size=3), max_size=3),
    )
    keys = st.one_of(texts, st.integers(-3, 3), st.booleans(), st.none(), floats)

    def matrices(shape):
        """Tables and records whose rows have ``n`` entries, all floats (``pairs``
        False) or all [float, float] lists, with some rows spoiled: by an entry
        of another type, a float subclass, or another length."""
        n, pairs = shape
        entry = st.lists(floats, min_size=2, max_size=2) if pairs else floats
        exact = st.lists(entry, min_size=n, max_size=n)
        odd = st.one_of(st.integers(0, 1), st.booleans(), unit.map(Degree),
                        st.lists(floats, min_size=1, max_size=3), floats)
        spoiled = st.tuples(exact, st.integers(0, 3), odd).map(
            lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])
        row = st.one_of(exact, exact, exact, exact, spoiled, st.lists(entry, max_size=3))
        record = st.fixed_dictionaries({"from": texts, "to": texts, "values": row})
        odd = st.one_of(  # keys reordered or extra, or a column not all strings
            record.map(lambda r: dict(reversed(r.items()))),
            st.fixed_dictionaries({"from": texts, "to": texts, "values": row, "more": row}),
            st.fixed_dictionaries({"from": st.one_of(texts.map(Text), st.integers(0, 3)),
                                   "to": texts, "values": row}),
        )
        return st.one_of(st.dictionaries(keys, row, min_size=1, max_size=4),
                         st.lists(record, min_size=1, max_size=4),
                         st.lists(st.one_of(record, odd), min_size=1, max_size=4))

    tables = st.tuples(st.integers(0, 3), st.booleans()).flatmap(matrices)
    return st.recursive(
        st.one_of(scalars, rows, tables),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(keys, inner, max_size=4),
        ),
        max_leaves=24,
    )


def test_dumps_matches_the_reference_writer_on_drawn_values():
    from hypothesis import HealthCheck, given, settings

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=list(HealthCheck))
    @given(_json_like())
    def check(value):
        assert dumps(value) == reference_dumps(value)

    check()
