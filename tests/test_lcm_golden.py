"""Byte-for-byte regression corpus for ``lcm_pipeline`` and the flow-graph
solver.

Each case is a function that builds one report; its digest is the SHA-256 of
the deterministic JSON text of that report.  An LCM case runs a problem in
one mode under one logic family and an optional solver configuration.  The
digests in ``lcm_golden.json`` were frozen from the per-expression
flow-graph engine that preceded the array engine, and the ``frank<i>``
cases from the array engine while it still evaluated Frank through the
scalar ``LogicFamily.tnorm``, and the ``wide<i>`` cases from the array
engine while it still stacked rows from dicts per stage and met merges with
per-slot scatter-adds, as were the ``single`` and ``no_exprs`` cases, and
the ``fan<i>`` cases while it still summed each merge's inputs slot by slot
in Python and each column's residual in node order (the ``frank:0.01`` ones
while it summed padded link-slot tables), so any change in any printed digit
of any matrix fails here.

The Frank soft cases (fuzzy and interval mode, Frank off the product band)
run their array T-norm on numpy's ``expm1`` and ``log1p``.  Their digests
were frozen while those were ``math``'s, the C library's, and numpy's
baseline loops still are, bit for bit; the SIMD loops numpy dispatches to on
some CPUs (AVX-512) round some inputs differently.  So each Frank soft case
is digested, built directly and through the parser, in one child process
with numpy's dispatch switched off (``baseline_loop``), and must match its
frozen digest there; and here, on whatever loop numpy picks, each report must
equal that child's within ``REPORT_TOL``, with the same keys, shapes, flags
and strings.  On AVX-512 the reports differ by at most 2.1e-15.

The ``solve/``, ``fig1/`` and ``evaluate/`` cases were frozen from the
solver that interpreted formulas by recursion, with a scalar and an interval
copy of each layer.  A ``solve/`` or ``fig1/`` case holds the ``solve`` or
``solve_interval`` report and one ``step`` from its last state; an
``evaluate/`` case holds ``evaluate`` and ``evaluate_interval`` of random
formulas.

Add the digests of new cases, keeping every frozen one, with::

    PYTHONPATH=src python tests/test_lcm_golden.py --write

and replace every digest (only for a deliberate, documented output
change) with ``--rewrite``.
"""

import hashlib
import json
import random
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from fuzzydfa import LogicFamily, SolverConfig, TruthInterval
from fuzzydfa import _jsonio
from fuzzydfa import lcm as L
from fuzzydfa import solver as S
from fuzzydfa.flowgraph import load_graph_file
from fuzzydfa.formula import evaluate, evaluate_interval
import baseline_loop
from conftest import on_numpy_loops, random_flowgraph, random_formula
from krs_oracle import random_crisp_problem

HERE = Path(__file__).resolve().parent
DATA_DIR = HERE.parents[0] / "demos" / "data"
GOLDEN = HERE / "lcm_golden.json"

BUNDLED_FAMILIES = ["minmax", "product", "lukasiewicz", "frank:2"]
RANDOM_FAMILIES = ["minmax", "product", "lukasiewicz", "frank:2", "frank:0.5", "nilpotent"]
RANDOM_CFGS = 20
# Frank at both ends of its range, where expm1/log1p carry the evaluation.
FRANK_FAMILIES = ["frank:0.01", "frank:100"]
FRANK_CFGS = 10
# Larger CFGs with extra edges, so some merges have four or more inputs and
# the edges are not sorted: each merge must add its inputs in edge order.
WIDE_FAMILIES = ["minmax", "product", "frank:2"]
WIDE_CFGS = 6
WIDE_FAN_IN = 4
# Fan-in and fan-out of ten, as the benchmark's medium and large CFGs reach:
# one merge adds ten or more weighted inputs.
FAN_FAMILIES = ["minmax", "product", "frank:0.01"]
FAN_CFGS = 3
FAN = 10
# The flow-graph solver: every family above, plus nilpotent.
SOLVE_FAMILIES = list(dict.fromkeys(
    BUNDLED_FAMILIES + RANDOM_FAMILIES + FRANK_FAMILIES + WIDE_FAMILIES + ["nilpotent"]
))
SOLVE_SIZES = [3, 6, 12, 25]
SOLVE_START_WEIGHTS = [0.0, 0.2]
SOLVE_MAX_ITERS = 200
# fig1 converges in 137 sweeps under its own minmax logic; nilpotent never does.
FIG1_MAX_ITERS = 1000
# How far a Frank soft report on numpy's default loop may be from the baseline
# loop's, entry by entry.  500 times the largest distance seen on AVX-512, and
# far below what one more or one fewer sweep of a column moves.
REPORT_TOL = 1e-12


def _random_rows(rng: random.Random, problem, kind: str, ends: float = 0.0) -> None:
    """Fill the rows with ``kind`` values; with ``ends`` > 0 that share of
    the soft draws is an exact 0 or 1 instead."""

    def draw():
        if ends and rng.random() < ends:
            return float(rng.random() < 0.5)
        return rng.random()

    def cell():
        if kind == "crisp":
            return float(rng.random() < 0.4)
        if kind == "fuzzy":
            return draw()
        return TruthInterval(*sorted((draw(), draw())))

    width = len(problem.exprs)
    for name in ("dee", "uee", "kill"):
        setattr(problem, name, {b: [cell() for _ in range(width)] for b in problem.blocks})


def _widen(rng: random.Random, problem, fan_in: int = WIDE_FAN_IN, fan_out: int = 0) -> None:
    """Give a few blocks at least ``fan_in`` predecessors and, with
    ``fan_out``, one block at least that many successors; shuffle the edge
    order and draw uneven weights that still sum to 1 per block."""
    blocks, entry, exit_ = problem.blocks, problem.entry, problem.exit
    pairs = {(e.src, e.dst) for e in problem.edges}
    for dst in rng.sample(blocks[1:], min(4, len(blocks) - 1)):
        sources = [b for b in blocks if b not in (dst, exit_) and (b, dst) not in pairs]
        have = sum(1 for _, d in pairs if d == dst)
        for src in rng.sample(sources, max(0, min(fan_in - have, len(sources)))):
            pairs.add((src, dst))
    if fan_out:
        src = rng.choice(blocks[:-1])
        targets = [b for b in blocks if b not in (src, entry) and (src, b) not in pairs]
        have = sum(1 for s, _ in pairs if s == src)
        for dst in rng.sample(targets, max(0, min(fan_out - have, len(targets)))):
            pairs.add((src, dst))
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    weight = [rng.uniform(0.1, 1.0) for _ in pairs]
    weight_back = [rng.uniform(0.1, 1.0) for _ in pairs]
    into: dict[str, float] = {}
    out_of: dict[str, float] = {}
    for (src, dst), w, wb in zip(pairs, weight, weight_back):
        into[dst] = into.get(dst, 0.0) + w
        out_of[src] = out_of.get(src, 0.0) + wb
    problem.edges = [
        L.LcmEdge(src, dst, w / into[dst], wb / out_of[src])
        for (src, dst), w, wb in zip(pairs, weight, weight_back)
    ]
    assert entry not in into and exit_ not in out_of


def lcm_report(problem, mode, family, cfg) -> dict:
    return L.lcm_pipeline(problem, mode, family, cfg).to_json_dict()


def _widen_seeds(rng: random.Random, graph) -> None:
    """Replace every scalar seed x by an interval around it."""
    graph.seeds = {
        node: {
            prop: TruthInterval(max(0.0, x - rng.random() * 0.2), min(1.0, x + rng.random() * 0.2))
            for prop, x in valuation.items()
        }
        for node, valuation in graph.seeds.items()
    }


def _two_properties(rng: random.Random, graph) -> None:
    """Give every node a second property "Aux", and let each property's
    transfer read the other one of the predecessor by name."""
    for node in graph.transfers:
        graph.transfers[node] = {
            "Out": random_formula(rng, ["In", "Aux"], 3, linear=True),
            "Aux": random_formula(rng, ["In", "Out"], 3, linear=True),
        }
    graph.seeds[graph.start]["Aux"] = rng.random()


def solve_report(graph, cfg, interval: bool) -> dict:
    """The solve report and one ``step`` from its last state."""
    run, step = (S.solve_interval, S.step_interval) if interval else (S.solve, S.step)
    report = run(graph, cfg)
    after = step(graph, report.final, cfg.family)
    return {"solve": report.to_json_dict(), "step": S.SolveReport(after, 0).to_json_dict()}


def evaluate_report(family, seed: str) -> list:
    """``evaluate`` and ``evaluate_interval`` of random formulas over x, y, z."""
    rng = random.Random(seed)
    out = []
    for _ in range(60):
        f = random_formula(rng, ["x", "y", "z"], 4)
        point = {name: rng.random() for name in "xyz"}
        box = {name: TruthInterval(*sorted((rng.random(), rng.random()))) for name in "xyz"}
        out.append([
            evaluate(f, family, point),
            _jsonio.dump_value(evaluate_interval(f, family, box)),
        ])
    return out


def solve_cases() -> dict:
    """name -> report function for the flow-graph solver."""
    cases = {}
    for logic in SOLVE_FAMILIES:
        family = LogicFamily.parse(logic)
        for width in ("scalar", "interval"):
            interval = width == "interval"
            for n in SOLVE_SIZES:
                for w in SOLVE_START_WEIGHTS:
                    for bits in (None, 8):
                        key = f"{n}/{w}/{logic}/{width}"
                        rng = random.Random(f"golden/solve/{key}")
                        graph = random_flowgraph(rng, n, start_weight=w)
                        if interval:
                            _widen_seeds(rng, graph)
                        cfg = SolverConfig(family, max_iters=SOLVE_MAX_ITERS, quantize_bits=bits)
                        cases[f"solve/{key}/q{bits}"] = partial(solve_report, graph, cfg, interval)
            for n in (6, 12):
                key = f"{n}/two_props/{logic}/{width}"
                rng = random.Random(f"golden/solve/{key}")
                graph = random_flowgraph(rng, n, start_weight=0.2)
                _two_properties(rng, graph)
                if interval:
                    _widen_seeds(rng, graph)
                cfg = SolverConfig(family, max_iters=SOLVE_MAX_ITERS)
                cases[f"solve/{key}"] = partial(solve_report, graph, cfg, interval)
            graph, _ = load_graph_file(str(DATA_DIR / "fig1.json"))
            if interval:
                _widen_seeds(random.Random("golden/fig1"), graph)
            cfg = SolverConfig(family, max_iters=FIG1_MAX_ITERS)
            cases[f"fig1/{logic}/{width}"] = partial(solve_report, graph, cfg, interval)
        cases[f"evaluate/{logic}"] = partial(evaluate_report, family, f"golden/evaluate/{logic}")
    return cases


def golden_cases() -> dict:
    """name -> function that builds the report to digest."""
    cases = {}
    for stem, modes in (("diffpcm_t1", ("crisp", "fuzzy")), ("diffpcm_t2", ("interval",))):
        problem, _ = L.load_problem_file(str(DATA_DIR / f"{stem}.json"))
        for mode in modes:
            for logic in BUNDLED_FAMILIES:
                cases[f"{stem}/{mode}/{logic}"] = partial(
                    lcm_report, problem, mode, LogicFamily.parse(logic), None
                )
    for i in range(RANDOM_CFGS):
        logic = RANDOM_FAMILIES[i % len(RANDOM_FAMILIES)]
        for mode in ("crisp", "fuzzy", "interval"):
            rng = random.Random(f"golden/{i}")
            problem = random_crisp_problem(rng, max_blocks=10, max_exprs=5)
            _random_rows(random.Random(f"golden/{i}/{mode}"), problem, mode)
            family = LogicFamily.parse(logic)
            cfg = SolverConfig(family=family, max_iters=3000)
            cases[f"random{i}/{mode}/{logic}"] = partial(lcm_report, problem, mode, family, cfg)
    for i in range(FRANK_CFGS):
        for mode in ("fuzzy", "interval"):
            for logic in FRANK_FAMILIES:
                rng = random.Random(f"golden/frank/{i}")
                problem = random_crisp_problem(rng, max_blocks=12, max_exprs=6)
                _random_rows(random.Random(f"golden/frank/{i}/{mode}"), problem, mode, ends=0.3)
                family = LogicFamily.parse(logic)
                cfg = SolverConfig(family=family, max_iters=3000)
                cases[f"frank{i}/{mode}/{logic}"] = partial(lcm_report, problem, mode, family, cfg)
    for i in range(WIDE_CFGS):
        for mode in ("crisp", "fuzzy", "interval"):
            for logic in WIDE_FAMILIES:
                rng = random.Random(f"golden/wide/{i}")
                problem = random_crisp_problem(rng, max_blocks=40, max_exprs=12)
                _widen(rng, problem)
                _random_rows(random.Random(f"golden/wide/{i}/{mode}"), problem, mode, ends=0.2)
                family = LogicFamily.parse(logic)
                cfg = SolverConfig(family=family, max_iters=3000)
                cases[f"wide{i}/{mode}/{logic}"] = partial(lcm_report, problem, mode, family, cfg)
    for i in range(FAN_CFGS):
        for mode in ("fuzzy", "interval"):
            for logic in FAN_FAMILIES:
                rng = random.Random(f"golden/fan/{i}")
                problem = random_crisp_problem(rng, max_blocks=40, max_exprs=8)
                _widen(rng, problem, FAN, FAN)
                _random_rows(random.Random(f"golden/fan/{i}/{mode}"), problem, mode, ends=0.2)
                family = LogicFamily.parse(logic)
                cfg = SolverConfig(family=family, max_iters=3000)
                cases[f"fan{i}/{mode}/{logic}"] = partial(lcm_report, problem, mode, family, cfg)
    for mode in ("crisp", "fuzzy", "interval"):
        for logic in WIDE_FAMILIES:
            family = LogicFamily.parse(logic)
            # One block, both entry and exit: no edge, so no merge has a link.
            problem = L.LcmProblem(["only"], [], ["a", "b", "c"], {}, {}, {}, "only", "only")
            _random_rows(random.Random(f"golden/single/{mode}"), problem, mode, ends=0.3)
            cases[f"single/{mode}/{logic}"] = partial(lcm_report, problem, mode, family, None)
            # Edges but no expression: every array has an empty middle axis.
            problem = random_crisp_problem(random.Random("golden/no_exprs"), max_blocks=8)
            problem.exprs = []
            _random_rows(random.Random("golden/no_exprs/rows"), problem, mode)
            cases[f"no_exprs/{mode}/{logic}"] = partial(lcm_report, problem, mode, family, None)
    for stem, mode in (("diffpcm_t1", "fuzzy"), ("diffpcm_t2", "interval")):
        problem, _ = L.load_problem_file(str(DATA_DIR / f"{stem}.json"))
        family = LogicFamily.product()
        cfg = SolverConfig(family=family, quantize_bits=20)
        cases[f"{stem}/{mode}/product/q20"] = partial(lcm_report, problem, mode, family, cfg)
        # Some columns converge within the cap and some do not.
        cfg = SolverConfig(family=family, max_iters=40)
        cases[f"{stem}/{mode}/product/cap40"] = partial(lcm_report, problem, mode, family, cfg)
    cases.update(solve_cases())
    return cases


def report_digest(report) -> str:
    text = _jsonio.dumps(report())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CASES = golden_cases()
# Cases whose array T-norm runs numpy's expm1 and log1p (see the module docstring).
FRANK_SOFT_CASES = sorted(name for name, case in CASES.items() if case.func is lcm_report
                          and case.args[1] != "crisp" and on_numpy_loops(case.args[2]))


def test_golden_corpus_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


def test_fan_cases_reach_the_fan_in_and_fan_out():
    fans = [name for name in CASES if name.startswith("fan")]
    assert len(fans) == FAN_CFGS * 2 * len(FAN_FAMILIES)
    for name in fans:
        edges = CASES[name].args[0].edges
        for end in ("src", "dst"):
            degree = Counter(getattr(e, end) for e in edges)
            assert max(degree.values()) >= FAN, (name, end)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical_to_golden(name, request):
    expected = json.loads(GOLDEN.read_text())[name]
    if name in FRANK_SOFT_CASES:
        assert request.getfixturevalue("libm_baseline")["lcm"][name]["digest"] == expected
    else:
        assert report_digest(CASES[name]) == expected


def problem_text(problem, mode: str) -> str:
    """The problem file of ``problem`` in ``mode``, with floats written by
    ``repr`` (as ``json.dumps`` does), so they read back as the same floats."""
    def rows(matrix):
        return {b: [_jsonio.dump_value(v) for v in row] for b, row in matrix.items()}

    return json.dumps({
        "mode": mode, "entry": problem.entry, "exit": problem.exit, "blocks": problem.blocks,
        "edges": [{"from": e.src, "to": e.dst, "alpha": e.alpha, "alpha_back": e.alpha_back}
                  for e in problem.edges],
        "exprs": problem.exprs, "dee": rows(problem.dee), "uee": rows(problem.uee),
        "kill": rows(problem.kill),
    })


LIBRARY_LCM_CASES = sorted(name for name, case in CASES.items()
                           if case.func is lcm_report and not name.startswith("diffpcm"))


def parsed_case(name: str) -> partial:
    """Library-built case ``name`` with its problem written as a file and
    parsed, every row and edge held as parsed."""
    problem, mode, family, cfg = CASES[name].args
    parsed, _ = L.problem_from_json_dict(json.loads(problem_text(problem, mode)))
    assert not vars(parsed).keys() & {"edges", "dee", "uee", "kill"}
    return partial(lcm_report, parsed, mode, family, cfg)


@pytest.mark.parametrize("name", LIBRARY_LCM_CASES)
def test_library_built_case_is_byte_identical_through_the_parser(name, request):
    """Each library-built problem, written as a file and parsed, reports its
    frozen digest."""
    expected = json.loads(GOLDEN.read_text())[name]
    if name in FRANK_SOFT_CASES:
        assert request.getfixturevalue("libm_baseline")["lcm"][name]["parsed"] == expected
    else:
        assert report_digest(parsed_case(name)) == expected


def assert_close(got, want, path: str = "report") -> None:
    """``got`` has ``want``'s keys, lengths, strings and flags, and each float
    within ``REPORT_TOL`` of ``want``'s."""
    if type(want) is dict:
        assert type(got) is dict and list(got) == list(want), path
        for key, value in want.items():
            assert_close(got[key], value, f"{path}.{key}")
    elif type(want) is list and want and type(want[0]) in (float, list):  # floats, or pairs
        got, want = np.array(got, float), np.array(want, float)
        assert got.shape == want.shape and np.abs(got - want).max(initial=0.0) <= REPORT_TOL, path
    elif type(want) is list:
        assert type(got) is list and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, path


@pytest.mark.parametrize("name", FRANK_SOFT_CASES)
def test_frank_soft_report_is_within_tolerance_of_the_baseline_loop(name, baseline):
    """On numpy's default loop, built directly and through the parser."""
    want = baseline["lcm"][name]["report"]
    builds = [CASES[name]]
    if name in LIBRARY_LCM_CASES:
        builds.append(parsed_case(name))
    for build in builds:
        assert_close(json.loads(json.dumps(build())), want)


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--rewrite"]):
        sys.exit("usage: test_lcm_golden.py --write | --rewrite")
    frozen = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if sys.argv[1] == "--rewrite":
        frozen = {}
    # A new Frank soft digest is frozen on numpy's baseline loop, where it is checked.
    baseline = baseline_loop.run()["lcm"] if set(FRANK_SOFT_CASES) - frozen.keys() else {}
    digests = {
        name: frozen[name] if name in frozen
        else baseline[name]["digest"] if name in baseline else report_digest(case)
        for name, case in sorted(CASES.items())
    }
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    added = len(digests.keys() - frozen.keys())
    print(f"wrote {len(digests)} digests to {GOLDEN} ({added} new)")
