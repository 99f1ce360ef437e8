"""Epsilon-bounded fixed-point iteration of the weighted-average analysis
functional, in scalar and interval flavours.

``step`` is the functional itself: a simultaneous update where every node's
new valuation is the weight-averaged interpretation of its transfer over the
predecessors' previous valuations.  ``solve`` iterates to a fixed point with
in-place sweeps in node declaration order: each sweep applies the same
per-node update but reads already-updated values, which keeps the residual
of the bundled examples monotone once the transient has passed.  Both reach
the same fixed point whenever the functional contracts (the start node's
influence damps every cycle).

Both flavours run one code path: seeds and given states are checked once on
entry and held as tuples of ends, and each transfer is compiled once per call
with ``In`` bound to the property it computes (see ``formula``).
"""

from __future__ import annotations

from .flowgraph import INPUT_NAME, FlowGraph, Valuation, validate
from .formula import _Ops
from .truth import LogicFamily, SolverConfig, _Record, quantize

__all__ = ["SolverConfig", "SolveReport", "step", "step_interval", "solve", "solve_interval"]

GlobalState = dict[str, Valuation]


class SolveReport(_Record):
    _fields = ("final", "iterations", "residual_trace", "converged")

    def __init__(self, final: GlobalState, iterations: int,
                 residual_trace: list[float] | None = None, converged: bool = False) -> None:
        self.final = final
        self.iterations = iterations
        self.residual_trace = [] if residual_trace is None else residual_trace
        self.converged = converged

    def to_json_dict(self) -> dict:
        from ._jsonio import dump_value

        return {
            "final": {
                node: {prop: dump_value(v) for prop, v in valuation.items()}
                for node, valuation in self.final.items()
            },
            "iterations": self.iterations,
            "residual_trace": list(self.residual_trace),
            "converged": self.converged,
        }


def _lift(state, ops: _Ops) -> dict:
    what = "seed in a scalar solve"
    return {node: {p: ops.lift(v, what) for p, v in val.items()} for node, val in state.items()}


def _unlift(state: dict, ops: _Ops) -> GlobalState:
    return {node: {p: ops.unlift(v) for p, v in val.items()} for node, val in state.items()}


def _updates(graph: FlowGraph, state: dict, ops: _Ops) -> list:
    """(node, property, transfer compiled with ``In`` bound to the property,
    [(alpha, predecessor's valuation in ``state``)]) per unpinned property."""
    pinned = graph.pinned()
    inputs: dict[str, list] = {node: [] for node in graph.transfers if node not in pinned}
    for edge in graph.edges:
        if edge.dst in inputs:
            inputs[edge.dst].append((edge.alpha, state[edge.src]))
    return [
        (node, prop, ops.compile(f, {INPUT_NAME: prop}), inputs[node])
        for node in inputs
        for prop, f in graph.transfers[node].items()
    ]


def _average(transfer, inputs: list, width: int) -> tuple:
    """The alpha-weighted average, over ``inputs``, of the transfer
    interpreted in each predecessor's valuation."""
    totals = [0.0] * width  # added left to right, end by end
    for alpha, src in inputs:
        value = transfer(src)
        for i in range(width):
            totals[i] += alpha * value[i]
    # Weight sums may be off by the validation tolerance (1e-9); keep the
    # state inside the unit interval without masking larger errors.
    return tuple(min(1.0, max(0.0, total)) for total in totals)


def _require_valid(graph: FlowGraph) -> None:
    report = validate(graph)
    if not report.ok:
        raise ValueError("graph is invalid: " + "; ".join(report.errors))


def _step(graph: FlowGraph, state: GlobalState, family: LogicFamily, width: int) -> GlobalState:
    _require_valid(graph)
    ops = _Ops(family, width)
    old = _lift(state, ops)
    pinned = graph.pinned()
    new = {node: dict(old[node]) if node in pinned else {} for node in graph.transfers}
    for node, prop, transfer, inputs in _updates(graph, old, ops):
        new[node][prop] = _average(transfer, inputs, width)
    return _unlift(new, ops)


def step(graph: FlowGraph, state: GlobalState, family: LogicFamily) -> GlobalState:
    """One simultaneous application of the analysis functional.

    All reads come from ``state``, all writes go to the result; pinned nodes
    keep their valuation.  An invalid graph raises ``solve``'s ValueError.
    """
    return _step(graph, state, family, 1)


def step_interval(graph: FlowGraph, state: GlobalState, family: LogicFamily) -> GlobalState:
    return _step(graph, state, family, 2)


def _solve(graph: FlowGraph, cfg: SolverConfig, width: int, initial: GlobalState | None) -> SolveReport:
    _require_valid(graph)
    ops = _Ops(cfg.family, width)
    if initial is None:
        pinned = graph.pinned()
        initial = {
            node: graph.seeds.get(node, {}) if node in pinned else dict.fromkeys(transfer, 0.0)
            for node, transfer in graph.transfers.items()
        }
    state = _lift(initial, ops)
    updates = _updates(graph, state, ops)
    bits = cfg.quantize_bits

    trace: list[float] = []
    converged = False
    for _ in range(cfg.max_iters):
        residual = 0.0
        for node, prop, transfer, inputs in updates:
            new = _average(transfer, inputs, width)
            if bits is not None:
                new = tuple(quantize(end, bits) for end in new)
            valuation = state[node]
            change = 0.0
            for a, b in zip(new, valuation[prop]):
                change += abs(a - b)
            residual += change
            valuation[prop] = new
        trace.append(residual)
        if residual < cfg.epsilon:
            converged = True
            break
    return SolveReport(final=_unlift(state, ops), iterations=len(trace), residual_trace=trace,
                       converged=converged)


def solve(graph: FlowGraph, cfg: SolverConfig, initial: GlobalState | None = None) -> SolveReport:
    """Iterate from the seed-extended zero state until the l1 difference of a
    sweep drops below epsilon, or max_iters is exhausted.

    Non-convergence is not an error; it is reported as ``converged=False``
    (the fixed point is only guaranteed when the functional contracts).
    """
    return _solve(graph, cfg, 1, initial)


def solve_interval(graph: FlowGraph, cfg: SolverConfig, initial: GlobalState | None = None) -> SolveReport:
    """Interval-valued ``solve``; the residual sums over both endpoints."""
    return _solve(graph, cfg, 2, initial)
