"""Fuzzy data-flow analysis over [0,1]-valued properties.

Transfer functions are fuzzy-logic formulas, control-flow joins are
weighted averages, and analyses iterate to an epsilon-bounded fixed point.
On top of the core framework: lazy code motion in crisp, fuzzy and interval
(type-2) modes, and a Takagi-Sugeno ANFIS classifier that refines analysis
verdicts online.

The names below are loaded from their submodule on first access (PEP 562),
so ``import fuzzydfa`` itself imports no submodule and no numpy, and each
command line run loads only what it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "truth": (
        "LogicFamily", "SolverConfig", "TruthInterval", "TruthValueError", "quantize",
        "truth_value",
    ),
    "formula": (
        "And", "Const", "Formula", "FormulaSyntaxError", "Not", "Or", "UnboundVariableError",
        "Var", "evaluate", "evaluate_interval", "format_formula", "free_vars", "parse_formula",
    ),
    "flowgraph": (
        "Edge", "FlowGraph", "ValidationReport", "graph_from_json_dict", "load_graph_file",
        "validate",
    ),
    "solver": ("SolveReport", "solve", "solve_interval", "step", "step_interval"),
    "lcm": (
        "LcmEdge", "LcmProblem", "LcmResult", "WidthMismatchError", "join_targets",
        "lcm_pipeline", "load_problem_file", "validate_problem",
    ),
    "anfis": (
        "AnfisModel", "NoRuleFiresError", "Rule", "TrainConfig", "TriangularMf", "lms_update",
        "ls_fit", "predict", "run_harness", "uniform_model",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"_jsonio", "cli", *_EXPORTS})

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
