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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .flowgraph import INPUT_NAME, FlowGraph, Valuation, Value, validate
from .formula import evaluate, evaluate_interval
from .truth import LogicFamily, SolverConfig, TruthInterval, quantize

__all__ = ["SolverConfig", "SolveReport", "step", "step_interval", "solve", "solve_interval"]

GlobalState = dict[str, Valuation]


@dataclass
class SolveReport:
    final: GlobalState
    iterations: int
    residual_trace: list[float] = field(default_factory=list)
    converged: bool = False

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


# -- value domains -----------------------------------------------------------
# One code path serves both scalar and interval analyses; the domain supplies
# the handful of operations that differ.


class _ScalarDomain:
    zero = 0.0

    @staticmethod
    def lift(value: Value) -> float:
        if isinstance(value, TruthInterval):
            raise TypeError("interval seed in a scalar solve")
        return float(value)

    @staticmethod
    def eval(f, family, env):
        return evaluate(f, family, env)

    @staticmethod
    def weighted_sum(pairs) -> float:
        total = sum(alpha * value for alpha, value in pairs)
        # Weight sums may be off by the validation tolerance (1e-9); keep the
        # state inside the unit interval without masking larger errors.
        return min(1.0, max(0.0, total))

    @staticmethod
    def distance(a: float, b: float) -> float:
        return abs(a - b)

    @staticmethod
    def snap(value: float, bits: int) -> float:
        return quantize(value, bits)


class _IntervalDomain:
    zero = TruthInterval(0.0, 0.0)

    @staticmethod
    def lift(value: Value) -> TruthInterval:
        return value if isinstance(value, TruthInterval) else TruthInterval.degenerate(value)

    @staticmethod
    def eval(f, family, env):
        return evaluate_interval(f, family, env)

    @staticmethod
    def weighted_sum(pairs) -> TruthInterval:
        pairs = list(pairs)
        lo = sum(alpha * value.lo for alpha, value in pairs)
        hi = sum(alpha * value.hi for alpha, value in pairs)
        return TruthInterval(min(1.0, max(0.0, lo)), min(1.0, max(0.0, hi)))

    @staticmethod
    def distance(a: TruthInterval, b: TruthInterval) -> float:
        return abs(a.lo - b.lo) + abs(a.hi - b.hi)

    @staticmethod
    def snap(value: TruthInterval, bits: int) -> TruthInterval:
        return TruthInterval(quantize(value.lo, bits), quantize(value.hi, bits))


def _initial_state(graph: FlowGraph, domain) -> GlobalState:
    state: GlobalState = {}
    pinned = graph.pinned()
    for node in graph.transfers:
        if node in pinned:
            state[node] = {p: domain.lift(v) for p, v in graph.seeds.get(node, {}).items()}
        else:
            state[node] = {p: domain.zero for p in graph.transfers[node]}
    return state


def _collect(graph: FlowGraph, state: GlobalState, family, domain, node: str, prop: str,
             incoming: list):
    """New value of (node, prop): the alpha-weighted average, over
    ``incoming``, of the node's transfer interpreted in each predecessor's state."""
    f = graph.transfers[node][prop]
    contributions = []
    for edge in incoming:
        env = dict(state[edge.src])
        if prop in env:
            env[INPUT_NAME] = env[prop]
        contributions.append((edge.alpha, domain.eval(f, family, env)))
    return domain.weighted_sum(contributions)


def _in_edge_map(graph: FlowGraph) -> dict[str, list]:
    incoming: dict[str, list] = {node: [] for node in graph.transfers}
    for edge in graph.edges:
        if edge.dst in incoming:
            incoming[edge.dst].append(edge)
    return incoming


def _step(graph: FlowGraph, state: GlobalState, family: LogicFamily, domain) -> GlobalState:
    pinned = graph.pinned()
    incoming = _in_edge_map(graph)
    new: GlobalState = {}
    for node in graph.transfers:
        if node in pinned:
            new[node] = dict(state[node])
        else:
            new[node] = {
                prop: _collect(graph, state, family, domain, node, prop, incoming[node])
                for prop in graph.transfers[node]
            }
    return new


def step(graph: FlowGraph, state: GlobalState, family: LogicFamily) -> GlobalState:
    """One simultaneous application of the analysis functional.

    All reads come from ``state``, all writes go to the result; pinned nodes
    keep their valuation.
    """
    return _step(graph, state, family, _ScalarDomain)


def step_interval(graph: FlowGraph, state: GlobalState, family: LogicFamily) -> GlobalState:
    return _step(graph, state, family, _IntervalDomain)


def _solve(graph: FlowGraph, cfg: SolverConfig, domain, initial: GlobalState | None) -> SolveReport:
    report = validate(graph)
    if not report.ok:
        raise ValueError("graph is invalid: " + "; ".join(report.errors))

    if initial is None:
        state = _initial_state(graph, domain)
    else:
        state = {node: dict(valuation) for node, valuation in initial.items()}
    pinned = graph.pinned()
    order = [node for node in graph.transfers if node not in pinned]
    incoming = _in_edge_map(graph)

    trace: list[float] = []
    converged = False
    for _ in range(cfg.max_iters):
        residual = 0.0
        for node in order:
            for prop in graph.transfers[node]:
                new = _collect(graph, state, cfg.family, domain, node, prop, incoming[node])
                if cfg.quantize_bits is not None:
                    new = domain.snap(new, cfg.quantize_bits)
                residual += domain.distance(new, state[node][prop])
                state[node][prop] = new
        trace.append(residual)
        if residual < cfg.epsilon:
            converged = True
            break
    return SolveReport(final=state, iterations=len(trace), residual_trace=trace, converged=converged)


def solve(graph: FlowGraph, cfg: SolverConfig, initial: GlobalState | None = None) -> SolveReport:
    """Iterate from the seed-extended zero state until the l1 difference of a
    sweep drops below epsilon, or max_iters is exhausted.

    Non-convergence is not an error; it is reported as ``converged=False``
    (the fixed point is only guaranteed when the functional contracts).
    """
    return _solve(graph, cfg, _ScalarDomain, initial)


def solve_interval(graph: FlowGraph, cfg: SolverConfig, initial: GlobalState | None = None) -> SolveReport:
    """Interval-valued ``solve``; the residual sums over both endpoints."""
    return _solve(graph, cfg, _IntervalDomain, initial)
