"""The record classes' construction, equality, hashing, repr and freezing.

Each record takes its fields positionally in declaration order or by
keyword, with the same defaults; a mutable default is new per instance.
``==`` compares the fields and only instances of the same class; frozen
records hash by their fields and refuse assignment and deletion, mutable
ones are unhashable.
"""

import copy
import re
import types

import pytest

from fuzzydfa._jsonio import Settings
from fuzzydfa.anfis import (
    AnfisModel, HarnessResult, Prediction, Rule, TrainConfig, TriangularMf, uniform_model,
)
from fuzzydfa.flowgraph import Edge, FlowGraph, ValidationReport
from fuzzydfa.formula import And, Const, Formula, Not, Or, Var
from fuzzydfa.lcm import LcmEdge, LcmProblem, lcm_pipeline
from fuzzydfa.solver import SolveReport
from fuzzydfa.truth import LogicFamily, SolverConfig, TruthInterval

MINMAX = LogicFamily("minmax")
X, Y = Var("x"), Var("y")
MF = TriangularMf(0.0, 0.5, 1.0)
RULE = Rule((MF,), (0.25, 1.0))
MODEL = AnfisModel((RULE,), 1)
EDGE = Edge("a", "b", 0.5)
LCM_EDGE = LcmEdge("a", "b", 1.0, 1.0)

_MF = "TriangularMf(a=0.0, b=0.5, c=1.0)"
_RULE = f"Rule(antecedents=({_MF},), consequent=(0.25, 1.0))"
_MODEL = f"AnfisModel(rules=({_RULE},), dim=1, and_op='min')"

# (class, every field's value in declaration order, the defaults of the
# trailing fields, the exact repr, frozen?)
RECORDS = [
    (TruthInterval, {"lo": 0.25, "hi": 0.5}, {}, "TruthInterval(lo=0.25, hi=0.5)", True),
    (LogicFamily, {"kind": "product", "s": None}, {"s": None},
     "LogicFamily(kind='product', s=None)", True),
    (SolverConfig, {"family": MINMAX, "epsilon": 1e-3, "max_iters": 50, "quantize_bits": 8},
     {"family": MINMAX, "epsilon": 1e-6, "max_iters": 100_000, "quantize_bits": None},
     "SolverConfig(family=LogicFamily(kind='minmax', s=None), epsilon=0.001, max_iters=50, "
     "quantize_bits=8)", True),
    (Formula, {}, {}, "Formula()", True),
    (Var, {"name": "x"}, {}, "Var(name='x')", True),
    (Const, {"value": 0.5}, {}, "Const(value=0.5)", True),
    (Not, {"arg": X}, {}, "Not(arg=Var(name='x'))", True),
    (And, {"left": X, "right": Y}, {}, "And(left=Var(name='x'), right=Var(name='y'))", True),
    (Or, {"left": X, "right": Y}, {}, "Or(left=Var(name='x'), right=Var(name='y'))", True),
    (Edge, {"src": "a", "dst": "b", "alpha": 0.5}, {}, "Edge(src='a', dst='b', alpha=0.5)", True),
    (FlowGraph,
     {"transfers": {"a": {"p": X}}, "edges": [EDGE], "start": "a", "seeds": {"a": {"p": 0.5}}},
     {"seeds": {}},
     "FlowGraph(transfers={'a': {'p': Var(name='x')}}, edges=[Edge(src='a', dst='b', "
     "alpha=0.5)], start='a', seeds={'a': {'p': 0.5}})", False),
    (ValidationReport, {"errors": ["e"], "warnings": ["w"]}, {"errors": [], "warnings": []},
     "ValidationReport(errors=['e'], warnings=['w'])", False),
    (SolveReport, {"final": {"a": {"p": 0.5}}, "iterations": 3, "residual_trace": [0.5, 0.1],
                   "converged": True},
     {"residual_trace": [], "converged": False},
     "SolveReport(final={'a': {'p': 0.5}}, iterations=3, residual_trace=[0.5, 0.1], "
     "converged=True)", False),
    (LcmEdge, {"src": "a", "dst": "b", "alpha": 1.0, "alpha_back": 1.0}, {},
     "LcmEdge(src='a', dst='b', alpha=1.0, alpha_back=1.0)", True),
    (LcmProblem,
     {"blocks": ["a", "b"], "edges": [LCM_EDGE], "exprs": ["e"], "dee": {"a": [1.0], "b": [0.0]},
      "uee": {"a": [0.0], "b": [1.0]}, "kill": {"a": [0.0], "b": [0.0]}, "entry": "a",
      "exit": "b"},
     {},
     "LcmProblem(blocks=['a', 'b'], edges=[LcmEdge(src='a', dst='b', alpha=1.0, "
     "alpha_back=1.0)], exprs=['e'], dee={'a': [1.0], 'b': [0.0]}, uee={'a': [0.0], "
     "'b': [1.0]}, kill={'a': [0.0], 'b': [0.0]}, entry='a', exit='b')", False),
    (Settings, {"mode": "crisp", "logic": MINMAX, "epsilon": 1e-3, "max_iters": 10},
     {"logic": None, "epsilon": None, "max_iters": None},
     "Settings(mode='crisp', logic=LogicFamily(kind='minmax', s=None), epsilon=0.001, "
     "max_iters=10)", False),
    (TriangularMf, {"a": 0.0, "b": 0.5, "c": 1.0}, {}, _MF, True),
    (Rule, {"antecedents": (MF,), "consequent": (0.25, 1.0)}, {}, _RULE, True),
    (AnfisModel, {"rules": (RULE,), "dim": 1, "and_op": "product"}, {"and_op": "min"},
     _MODEL.replace("'min'", "'product'"), True),
    (Prediction, {"output": 0.5, "firing": [1.0], "normalized": [1.0], "rule_outputs": [0.5]},
     {}, "Prediction(output=0.5, firing=[1.0], normalized=[1.0], rule_outputs=[0.5])", False),
    (TrainConfig, {"mu": 0.05, "retrain_error_threshold": 0.5},
     {"retrain_error_threshold": 0.8}, "TrainConfig(mu=0.05, retrain_error_threshold=0.5)",
     True),
    (HarnessResult, {"error_rates": [0.5], "update_model": MODEL, "leave_model": MODEL}, {},
     f"HarnessResult(error_rates=[0.5], update_model={_MODEL}, leave_model={_MODEL})", False),
]

CASES = pytest.mark.parametrize("cls, fields, defaults, text, frozen", RECORDS,
                                ids=[case[0].__name__ for case in RECORDS])


@CASES
def test_positional_and_keyword_construction_agree(cls, fields, defaults, text, frozen):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for record in (by_position, by_keyword):
        for name, value in fields.items():
            assert getattr(record, name) == value, name
    assert by_position == by_keyword


@CASES
def test_trailing_fields_default_and_mutable_defaults_are_not_shared(cls, fields, defaults,
                                                                      text, frozen):
    required = list(fields.values())[:len(fields) - len(defaults)]
    first, second = cls(*required), cls(*required)
    for name, value in defaults.items():
        assert getattr(first, name) == value, name
        if isinstance(value, (list, dict)):
            assert getattr(first, name) is not getattr(second, name), name


@CASES
def test_equality_compares_every_field_of_the_same_class(cls, fields, defaults, text, frozen):
    record = cls(**fields)
    assert record == cls(**fields) and not record != cls(**fields)
    for name in fields:
        spoiled = copy.copy(record)
        spoiled.__dict__[name] = object()
        assert record != spoiled and not record == spoiled, name
    lookalike = types.SimpleNamespace(**fields)
    assert record != lookalike and not record == lookalike
    assert record.__eq__(lookalike) is NotImplemented


@CASES
def test_class_patterns_bind_the_fields_by_position(cls, fields, defaults, text, frozen):
    assert cls.__match_args__ == tuple(fields)
    match cls(**fields):
        case And(left, right) | Or(left, right):
            assert (left, right) == (X, Y)
        case TruthInterval(lo, hi):
            assert (lo, hi) == (0.25, 0.5)


def test_formula_nodes_with_the_same_operands_differ_by_class():
    assert And(X, Y) != Or(X, Y) and Or(X, Y) != And(X, Y)
    assert Var("x") != Const(0.5) and Not(X) != X


@CASES
def test_frozen_records_hash_by_their_fields_and_mutable_ones_do_not_hash(cls, fields, defaults,
                                                                           text, frozen):
    record = cls(**fields)
    if frozen:
        assert hash(record) == hash(cls(**fields))
        assert len({record, cls(**fields)}) == 1
    else:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(record)


@CASES
def test_repr_names_the_class_and_every_field(cls, fields, defaults, text, frozen):
    assert repr(cls(**fields)) == text


@CASES
def test_frozen_records_refuse_assignment_and_deletion(cls, fields, defaults, text, frozen):
    record = cls(**fields)
    for name in [*fields, "extra"]:
        if not frozen:
            setattr(record, name, 1)
            assert getattr(record, name) == 1
            continue
        before = dict(vars(record))
        with pytest.raises(AttributeError, match=f"^{re.escape(f'cannot assign to field {name!r}')}$"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"^{re.escape(f'cannot delete field {name!r}')}$"):
            delattr(record, name)
        assert vars(record) == before


def test_lcm_results_are_frozen_and_unhashable():
    problem = LcmProblem(["a", "b"], [LCM_EDGE], ["e"], {"a": [1.0], "b": [0.0]},
                         {"a": [0.0], "b": [1.0]}, {"a": [0.0], "b": [0.0]}, "a", "b")
    result = lcm_pipeline(problem, "fuzzy")
    with pytest.raises(AttributeError, match="^cannot assign to field 'mode'$"):
        result.mode = "crisp"
    with pytest.raises(TypeError, match="unhashable type"):
        hash(result)
    assert result == lcm_pipeline(problem, "fuzzy") and result != problem


def test_derived_anfis_models_compare_and_print_as_eager_ones():
    model = uniform_model(1, 2)
    eager = AnfisModel(model.rules, 1)
    assert model == eager and hash(model) == hash(eager) and repr(model) == repr(eager)
