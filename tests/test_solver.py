import math
import random

import numpy as np
import pytest

from fuzzydfa import (
    Edge, FlowGraph, LogicFamily, TruthInterval, TruthValueError, Var, evaluate,
    evaluate_interval, parse_formula,
)
from fuzzydfa.solver import SolverConfig, solve, solve_interval, step, step_interval
from conftest import random_flowgraph
from test_flowgraph import fig1_graph

MINMAX = LogicFamily.minmax()


def zero_state(graph):
    state = {}
    for node in graph.transfers:
        if node in graph.pinned():
            state[node] = dict(graph.seeds.get(node, {}))
        else:
            state[node] = {p: 0.0 for p in graph.transfers[node]}
    return state


def chain_graph():
    c = 0.6
    return FlowGraph(
        transfers={
            "start": {"Out": parse_formula(repr(c))},
            "a": {"Out": parse_formula("In")},
            "b": {"Out": parse_formula("In")},
        },
        edges=[Edge("start", "a", 1.0), Edge("a", "b", 1.0)],
        start="start",
        seeds={"start": {"Out": c}},
    )


# -- step (the simultaneous functional) ----------------------------------------


def test_step_on_fig1_from_zeros():
    g = fig1_graph()
    s1 = step(g, zero_state(g), MINMAX)
    assert s1["B2"]["Out"] == pytest.approx(0.8)  # min(0.8, max(1-0, 0.3))
    assert s1["B1"]["Out"] == 0.0
    assert s1["B3"]["Out"] == 0.0
    assert s1["B0"]["Out"] == 0.0


def test_step_keeps_start_only_graph_fixed():
    g = FlowGraph(
        transfers={"s": {"Out": parse_formula("0.9")}},
        edges=[],
        start="s",
        seeds={"s": {"Out": 0.25}},
    )
    state = zero_state(g)
    assert step(g, state, MINMAX) == state


def test_step_propagates_along_identity_chain_one_hop_per_step():
    g = chain_graph()
    s0 = zero_state(g)
    s1 = step(g, s0, MINMAX)
    assert (s1["a"]["Out"], s1["b"]["Out"]) == (0.6, 0.0)
    s2 = step(g, s1, MINMAX)
    assert (s2["a"]["Out"], s2["b"]["Out"]) == (0.6, 0.6)


def test_step_is_simultaneous_not_in_place():
    g = chain_graph()
    s1 = step(g, zero_state(g), MINMAX)
    assert s1["b"]["Out"] == 0.0  # reads a's previous value, not the new one


# -- solve ----------------------------------------------------------------------


def brute_force_fig1(eps=1e-12):
    # Literal equation system, iterated independently of the solver code.
    b1 = b2 = b3 = 0.0
    for _ in range(10_000_000):
        n1 = 0.1 * 0.0 + 0.9 * b2
        n2 = min(0.8, max(1.0 - b1, 0.3))
        n3 = b1
        if abs(n1 - b1) + abs(n2 - b2) + abs(n3 - b3) < eps:
            return n1, n2, n3
        b1, b2, b3 = n1, n2, n3
    raise AssertionError("no convergence")


def test_solve_fig1_reaches_the_closed_form_fixed_point():
    g = fig1_graph()
    report = solve(g, SolverConfig(family=MINMAX, epsilon=1e-6))
    assert report.converged
    assert report.final["B1"]["Out"] == pytest.approx(9 / 19, abs=1e-5)
    assert report.final["B2"]["Out"] == pytest.approx(10 / 19, abs=1e-5)
    assert report.final["B3"]["Out"] == pytest.approx(9 / 19, abs=1e-5)
    b1, b2, b3 = brute_force_fig1()
    assert b1 == pytest.approx(9 / 19, abs=1e-9)
    assert report.final["B1"]["Out"] == pytest.approx(b1, abs=1e-5)
    assert report.final["B2"]["Out"] == pytest.approx(b2, abs=1e-5)


def test_solve_converged_flag_matches_last_residual():
    report = solve(fig1_graph(), SolverConfig(family=MINMAX, epsilon=1e-6))
    assert report.converged == (report.residual_trace[-1] < 1e-6)
    assert report.iterations == len(report.residual_trace)


def test_huge_epsilon_converges_after_one_iteration():
    report = solve(fig1_graph(), SolverConfig(family=MINMAX, epsilon=2.0))
    assert report.converged
    assert report.iterations == 1


def test_constant_graph_converges_within_two_iterations():
    g = FlowGraph(
        transfers={
            "s": {"Out": parse_formula("0.0")},
            "a": {"Out": parse_formula("0.7")},
            "b": {"Out": parse_formula("0.2 | 0.4")},
        },
        edges=[Edge("s", "a", 1.0), Edge("a", "b", 1.0)],
        start="s",
        seeds={"s": {"Out": 0.0}},
    )
    report = solve(g, SolverConfig(family=MINMAX))
    assert report.converged
    assert report.iterations <= 2
    assert report.final["a"]["Out"] == 0.7
    assert report.final["b"]["Out"] == 0.4


def test_oscillating_cycle_reports_non_convergence():
    g = FlowGraph(
        transfers={
            "s": {"Out": parse_formula("0.0")},
            "a": {"Out": parse_formula("!In")},
            "b": {"Out": parse_formula("In")},
        },
        edges=[Edge("b", "a", 1.0), Edge("a", "b", 1.0)],
        start="s",
        seeds={"s": {"Out": 0.0}},
    )
    report = solve(g, SolverConfig(family=MINMAX, max_iters=50))
    assert not report.converged
    assert report.iterations == 50


def test_solve_rejects_invalid_graph():
    g = fig1_graph()
    g.edges[0] = Edge("B0", "B1", 0.4)
    with pytest.raises(ValueError):
        solve(g, SolverConfig(family=MINMAX))


@pytest.mark.parametrize("spoil, error", [
    (lambda g: g.edges.append(Edge("B3", "zz", 1.0)), "dangling edge B3->zz: no node 'zz'"),
    (lambda g: g.transfers["B3"].update(Out=parse_formula("Mystery")),
     "B3.Out: variable 'Mystery' not defined by predecessor 'B1'"),
], ids=["dangling-edge", "undefined-variable"])
@pytest.mark.parametrize("step_fn, solve_fn", [(step, solve), (step_interval, solve_interval)],
                         ids=["scalar", "interval"])
def test_step_rejects_an_invalid_graph_as_solve_does(spoil, error, step_fn, solve_fn):
    g = fig1_graph()
    spoil(g)
    with pytest.raises(ValueError) as by_step:
        step_fn(g, zero_state(fig1_graph()), MINMAX)
    with pytest.raises(ValueError) as by_solve:
        solve_fn(g, SolverConfig(MINMAX))
    assert str(by_step.value) == str(by_solve.value) == f"graph is invalid: {error}"


@pytest.mark.parametrize("family", [None, "product", LogicFamily.product],
                         ids=["none", "name", "constructor"])
def test_solver_config_requires_a_logic_family(family):
    with pytest.raises(ValueError) as info:
        SolverConfig(family)
    assert str(info.value) == f"family must be a LogicFamily, got {family!r}"


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(family=MINMAX, epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(family=MINMAX, max_iters=0)


@pytest.mark.parametrize("settings, message", [
    ({"quantize_bits": 0}, "quantize_bits must be None or an integer >= 1, got 0"),
    ({"quantize_bits": -1}, "quantize_bits must be None or an integer >= 1, got -1"),
    ({"quantize_bits": True}, "quantize_bits must be None or an integer >= 1, got True"),
    ({"quantize_bits": 2.0}, "quantize_bits must be None or an integer >= 1, got 2.0"),
    ({"max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
    ({"max_iters": True}, "max_iters must be an integer, got True"),
], ids=["bits-0", "bits-negative", "bits-bool", "bits-float", "iters-fraction", "iters-bool"])
def test_solver_config_checks_integer_settings_on_construction(settings, message):
    with pytest.raises(ValueError) as info:
        SolverConfig(family=MINMAX, **settings)
    assert str(info.value) == message


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, -1e-6, 0, True, "1e-6", None],
                         ids=["inf", "nan", "negative", "zero", "bool", "string", "none"])
def test_solver_config_requires_a_finite_positive_epsilon(epsilon):
    with pytest.raises(ValueError) as info:
        SolverConfig(family=MINMAX, epsilon=epsilon)
    assert str(info.value) == f"epsilon must be > 0 and finite, got {epsilon!r}"


def test_solver_config_accepts_finite_positive_epsilons():
    for epsilon in (1e-300, 1, 0.5, np.float64(1e-6), 1e300):
        assert SolverConfig(family=MINMAX, epsilon=epsilon).epsilon == epsilon


def test_solver_config_accepts_integer_settings():
    cfg = SolverConfig(family=MINMAX, max_iters=1, quantize_bits=1)
    assert (cfg.max_iters, cfg.quantize_bits) == (1, 1)
    assert SolverConfig(family=MINMAX).quantize_bits is None


# -- framework properties ---------------------------------------------------------


def test_step_components_are_non_expansive_in_state_l1():
    # Each node's update is a convex combination of 1-Lipschitz transfer
    # evaluations, so no single component can move further than the state.
    # (The l1 norm of the whole step *can* exceed the input distance when a
    # node fans out to several successors, so the global claim is per
    # component, and in the sup norm for single-property graphs.)
    rng = random.Random(43)
    for _ in range(60):
        g = random_flowgraph(rng, n_nodes=rng.randint(2, 6))
        family = MINMAX if rng.random() < 0.5 else LogicFamily.product()
        s1, s2 = {}, {}
        for node in g.transfers:
            v1 = rng.random()
            v2 = rng.random()
            s1[node] = {"Out": v1}
            s2[node] = {"Out": v2}
        l1 = sum(abs(s1[n]["Out"] - s2[n]["Out"]) for n in g.transfers)
        sup = max(abs(s1[n]["Out"] - s2[n]["Out"]) for n in g.transfers)
        r1, r2 = step(g, s1, family), step(g, s2, family)
        for node in g.transfers:
            if node in g.pinned():
                continue
            delta = abs(r1[node]["Out"] - r2[node]["Out"])
            assert delta <= l1 + 1e-9
            assert delta <= sup + 1e-9  # weights into a node sum to 1


def test_step_shrinks_distance_to_the_fixed_point():
    rng = random.Random(47)
    checked = 0
    while checked < 30:
        g = random_flowgraph(rng, n_nodes=rng.randint(2, 6), start_weight=0.3)
        report = solve(g, SolverConfig(family=MINMAX, epsilon=1e-10))
        if not report.converged:
            continue
        fixed = report.final
        s = {n: {"Out": rng.random()} for n in g.transfers}
        for n in g.pinned():
            s[n] = dict(fixed[n])
        moved = step(g, s, MINMAX)
        before = max(abs(s[n]["Out"] - fixed[n]["Out"]) for n in g.transfers)
        after = max(abs(moved[n]["Out"] - fixed[n]["Out"]) for n in g.transfers)
        assert after <= before + 1e-6
        checked += 1


def test_fixed_point_is_unique_when_start_damps_every_cycle():
    # With the start contributing weight >= 0.3 to every node, the sweep is a
    # contraction; starting from all zeros and from all ones must meet.
    rng = random.Random(53)
    for _ in range(20):
        g = random_flowgraph(rng, n_nodes=rng.randint(2, 6), start_weight=0.3)
        eps = 1e-9
        zeros = solve(g, SolverConfig(family=MINMAX, epsilon=eps))
        ones_state = {
            n: (dict(g.seeds[n]) if n in g.pinned() else {"Out": 1.0}) for n in g.transfers
        }
        ones = solve(g, SolverConfig(family=MINMAX, epsilon=eps), initial=ones_state)
        assert zeros.converged and ones.converged
        gap = sum(
            abs(zeros.final[n]["Out"] - ones.final[n]["Out"]) for n in g.transfers
        )
        assert gap <= 2e-6


def test_fig1_zeros_and_ones_agree():
    g = fig1_graph()
    eps = 1e-6
    zeros = solve(g, SolverConfig(family=MINMAX, epsilon=eps))
    ones_state = {
        n: (dict(g.seeds[n]) if n in g.pinned() else {"Out": 1.0}) for n in g.transfers
    }
    ones = solve(g, SolverConfig(family=MINMAX, epsilon=eps), initial=ones_state)
    gap = sum(abs(zeros.final[n]["Out"] - ones.final[n]["Out"]) for n in g.transfers)
    assert gap <= 2 * eps


def test_fig1_residual_trace_strictly_decreases_after_first_iteration():
    report = solve(fig1_graph(), SolverConfig(family=MINMAX, epsilon=1e-6))
    trace = report.residual_trace
    assert len(trace) > 10
    assert all(trace[i] < trace[i - 1] for i in range(2, len(trace)))


# -- interval solving ----------------------------------------------------------------


def degenerate_state(graph):
    return {
        node: {p: TruthInterval.degenerate(v) for p, v in valuation.items()}
        for node, valuation in graph.seeds.items()
    }


def test_interval_solve_with_degenerate_seeds_matches_scalar():
    g = fig1_graph()
    scalar = solve(g, SolverConfig(family=MINMAX, epsilon=1e-8))
    gi = FlowGraph(
        transfers=g.transfers,
        edges=g.edges,
        start=g.start,
        seeds={n: {p: TruthInterval.degenerate(v) for p, v in val.items()} for n, val in g.seeds.items()},
    )
    boxed = solve_interval(gi, SolverConfig(family=MINMAX, epsilon=1e-8))
    assert boxed.converged
    for node in g.transfers:
        box = boxed.final[node]["Out"]
        value = scalar.final[node]["Out"]
        assert box.lo == pytest.approx(value, abs=1e-6)
        assert box.hi == pytest.approx(value, abs=1e-6)


def test_widening_the_seed_widens_the_result():
    rng = random.Random(59)
    for _ in range(25):
        g = random_flowgraph(rng, n_nodes=rng.randint(2, 5), start_weight=0.3)
        seed = g.seeds["start"]["Out"]
        lo = max(0.0, seed - 0.1)
        hi = min(1.0, seed + 0.1)
        narrow = FlowGraph(g.transfers, g.edges, g.start, {"start": {"Out": TruthInterval(seed, seed)}})
        wide = FlowGraph(g.transfers, g.edges, g.start, {"start": {"Out": TruthInterval(lo, hi)}})
        rn = solve_interval(narrow, SolverConfig(family=MINMAX, epsilon=1e-9))
        rw = solve_interval(wide, SolverConfig(family=MINMAX, epsilon=1e-9))
        assert rn.converged and rw.converged
        for node in g.transfers:
            wide_out, narrow_out = rw.final[node]["Out"], rn.final[node]["Out"]
            assert wide_out.lo - 1e-6 <= narrow_out.lo and narrow_out.hi <= wide_out.hi + 1e-6


def test_step_interval_contains_scalar_step():
    g = fig1_graph()
    s_scalar = zero_state(g)
    s_box = {n: {p: TruthInterval.degenerate(v) for p, v in val.items()} for n, val in s_scalar.items()}
    r_scalar = step(g, s_scalar, MINMAX)
    r_box = step_interval(g, s_box, MINMAX)
    for node in g.transfers:
        box = r_box[node]["Out"]
        assert box.lo - 1e-12 <= r_scalar[node]["Out"] <= box.hi + 1e-12


# -- misc ------------------------------------------------------------------------------


def test_multi_property_transfer_evaluates_componentwise():
    g = FlowGraph(
        transfers={
            "s": {"p": parse_formula("0.0"), "q": parse_formula("0.0")},
            "a": {"p": parse_formula("In | 0.5"), "q": parse_formula("p & 0.9")},
        },
        edges=[Edge("s", "a", 1.0)],
        start="s",
        seeds={"s": {"p": 0.2, "q": 0.8}},
    )
    report = solve(g, SolverConfig(family=MINMAX))
    assert report.converged
    assert report.final["a"]["p"] == pytest.approx(0.5)  # max(In=0.2, 0.5)
    assert report.final["a"]["q"] == pytest.approx(0.2)  # min(s.p, 0.9)


def test_quantize_snapping_keeps_state_on_the_grid():
    # Snapping can leave the iteration cycling between neighbouring grid
    # points, so epsilon has to dominate the grid resolution.
    report = solve(fig1_graph(), SolverConfig(family=MINMAX, epsilon=1e-4, quantize_bits=20))
    assert report.converged
    scale = 2**20
    for node, valuation in report.final.items():
        for value in valuation.values():
            assert value == round(value * scale) / scale
    assert report.final["B1"]["Out"] == pytest.approx(9 / 19, abs=1e-3)


def test_report_serializes_to_json_dict():
    report = solve(fig1_graph(), SolverConfig(family=MINMAX))
    data = report.to_json_dict()
    assert set(data) == {"final", "iterations", "residual_trace", "converged"}
    assert data["final"]["B1"]["Out"] == report.final["B1"]["Out"]
    assert data["converged"] is True


# -- values checked on entry ----------------------------------------------------------


def pass_through_graph(seed) -> FlowGraph:
    """s -> a, where a only copies its input: nothing but the entry check
    sees the seed."""
    return FlowGraph(
        transfers={"s": {"Out": parse_formula("0.0")}, "a": {"Out": parse_formula("In")}},
        edges=[Edge("s", "a", 1.0)],
        start="s",
        seeds={"s": {"Out": seed}},
    )


BAD_VALUES = [1.5, -0.1, float("nan")]


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("runner", [solve, solve_interval])
def test_out_of_range_seeds_are_rejected(runner, bad):
    with pytest.raises(TruthValueError):
        runner(pass_through_graph(bad), SolverConfig(family=MINMAX))


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("runner", [solve, solve_interval])
def test_out_of_range_initial_values_are_rejected(runner, bad):
    for node in ("s", "a"):
        initial = {"s": {"Out": 0.5}, "a": {"Out": 0.0}}
        initial[node]["Out"] = bad
        with pytest.raises(TruthValueError):
            runner(pass_through_graph(0.5), SolverConfig(family=MINMAX), initial=initial)


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_out_of_range_values_are_rejected_by_step_and_evaluate(bad):
    state = {"s": {"Out": bad}, "a": {"Out": 0.0}}
    for run in (step, step_interval):
        with pytest.raises(TruthValueError):
            run(pass_through_graph(0.5), state, MINMAX)
    for run in (evaluate, evaluate_interval):
        with pytest.raises(TruthValueError):
            run(Var("x"), MINMAX, {"x": bad})


def test_entry_check_clamps_rounding_noise():
    for runner in (solve, solve_interval):
        report = runner(pass_through_graph(1.0 + 1e-13), SolverConfig(family=MINMAX))
        assert report.final["a"]["Out"] in (1.0, TruthInterval(1.0, 1.0))
    assert evaluate(Var("x"), MINMAX, {"x": -1e-13}) == 0.0


def test_interval_seed_in_a_scalar_solve_is_a_type_error():
    with pytest.raises(TypeError, match="^interval seed in a scalar solve$"):
        solve(pass_through_graph(TruthInterval(0.2, 0.4)), SolverConfig(family=MINMAX))
