"""Weighted flow graphs: nodes carry transfer formulas, edges carry
normalized contribution weights.

A node's transfer is a map from property name to formula, evaluated
componentwise.  When the transfer for property ``p`` is evaluated against a
predecessor's valuation, the reserved variable ``In`` denotes that
predecessor's value of ``p``; any other variable names a predecessor
property directly.

Nodes with no incoming edges (the start node, and any other source) are
pinned: they hold the valuation given for them in ``seeds`` and are never
recomputed.  Every source must therefore have a seed entry.
"""

from __future__ import annotations

from typing import Any

from . import _jsonio
from ._jsonio import FileFormatError
from .formula import Formula, Value, free_vars, parse_formula
from .truth import WEIGHT_SUM_TOL, _Frozen, _Record, truth_value

__all__ = [
    "Edge",
    "FlowGraph",
    "ValidationReport",
    "validate",
    "graph_from_json_dict",
    "load_graph_file",
]

Valuation = dict[str, Value]

# Reserved: inside a transfer formula, "In" names the predecessor's value of
# the property being computed, so it cannot itself be a property.
INPUT_NAME = "In"


class Edge(_Frozen):
    _fields = ("src", "dst", "alpha")
    src: str
    dst: str
    alpha: float

    def __init__(self, src: str, dst: str, alpha: float) -> None:
        self._seal(src, dst, truth_value(alpha))


class FlowGraph(_Record):
    _fields = ("transfers", "edges", "start", "seeds")

    def __init__(self, transfers: dict[str, dict[str, Formula]], edges: list[Edge], start: str,
                 seeds: dict[str, Valuation] | None = None) -> None:
        self.transfers = transfers  # node id -> property -> formula
        self.edges = edges
        self.start = start
        self.seeds = {} if seeds is None else seeds

    def pinned(self) -> set[str]:
        """The start node plus every node with no incoming edges."""
        with_preds = {e.dst for e in self.edges}
        return {self.start} | (set(self.transfers) - with_preds)


class ValidationReport(_Record):
    _fields = ("errors", "warnings")

    def __init__(self, errors: list[str] | None = None, warnings: list[str] | None = None) -> None:
        self.errors = [] if errors is None else errors
        self.warnings = [] if warnings is None else warnings

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(graph: FlowGraph) -> ValidationReport:
    """Check structural invariants; violations are data, not exceptions."""
    report = ValidationReport()
    nodes = graph.transfers

    if graph.start not in nodes:
        report.errors.append(f"start node {graph.start!r} does not exist")
        return report

    # The edges between existing nodes, indexed both ways.
    incoming: dict[str, list[Edge]] = {node: [] for node in nodes}
    successors: dict[str, list[str]] = {node: [] for node in nodes}
    for edge in graph.edges:
        for endpoint in (edge.src, edge.dst):
            if endpoint not in nodes:
                report.errors.append(f"dangling edge {edge.src}->{edge.dst}: no node {endpoint!r}")
        if edge.src in nodes and edge.dst in nodes:
            incoming[edge.dst].append(edge)
            successors[edge.src].append(edge.dst)

    pinned = graph.pinned()

    # Incoming weights of every collected node must form a convex combination.
    for node in nodes:
        if node in pinned:
            continue
        total = 0  # an int: a node with no valid in-edge reads "sum to 0"
        for edge in incoming[node]:
            total += edge.alpha
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            report.errors.append(f"incoming weights of {node!r} sum to {total!r}, expected 1")

    # Pinned nodes are held at their seed, so the seed must cover every
    # property their transfer declares.
    for node in sorted(pinned & nodes.keys()):
        seed = graph.seeds.get(node)
        if seed is None:
            report.errors.append(f"source node {node!r} has no seed entry")
            continue
        missing = set(nodes[node]) - set(seed)
        if missing:
            report.errors.append(f"seed for {node!r} is missing properties {sorted(missing)}")
    for node in graph.seeds:
        if node not in nodes:
            report.errors.append(f"seed entry for unknown node {node!r}")
        elif node not in pinned:
            report.warnings.append(f"seed for {node!r} is ignored (node has incoming edges)")

    # Transfer formulas must be resolvable against every predecessor, whose
    # state properties are its seed keys if pinned, else its transfer keys.
    props = {
        node: set(graph.seeds.get(node) or transfer) if node in pinned else set(transfer)
        for node, transfer in nodes.items()
    }
    reads = {
        node: [(prop, sorted(free_vars(f))) for prop, f in transfer.items()]
        for node, transfer in nodes.items() if node not in pinned
    }
    for edge in graph.edges:
        if edge.src not in nodes or edge.dst not in reads:
            continue
        src_props = props[edge.src]
        for prop, names in reads[edge.dst]:
            for name in names:
                if name == INPUT_NAME:
                    if prop not in src_props:
                        report.errors.append(
                            f"{edge.dst}.{prop}: 'In' unresolvable, predecessor "
                            f"{edge.src!r} has no property {prop!r}"
                        )
                elif name not in src_props:
                    report.errors.append(
                        f"{edge.dst}.{prop}: variable {name!r} not defined by "
                        f"predecessor {edge.src!r}"
                    )

    # Reachability is advisory only: unreachable parts still solve.
    reachable = {graph.start}
    frontier = [graph.start]
    while frontier:
        for dst in successors[frontier.pop()]:
            if dst not in reachable:
                reachable.add(dst)
                frontier.append(dst)
    for node in nodes:
        if node not in reachable and node not in pinned:
            report.warnings.append(f"node {node!r} is unreachable from start")

    return report


# -- JSON problem format ------------------------------------------------------


def graph_from_json_dict(data: Any) -> tuple[FlowGraph, _jsonio.Settings]:
    _jsonio.check_keys(
        data, "problem", ["start", "nodes", "edges"],
        ["logic", "mode", "seed", "epsilon", "max_iters"],
    )
    settings = _jsonio.load_settings(data, ("scalar", "interval"), "scalar")
    interval = settings.mode == "interval"

    transfers: dict[str, dict[str, Formula]] = {}
    for i, node in enumerate(_jsonio.load_list(data["nodes"], "nodes")):
        _jsonio.check_keys(node, f"nodes[{i}]", ["id", "transfer"])
        node_id = _jsonio.load_string(node["id"], f"nodes[{i}].id")
        if node_id in transfers:
            raise FileFormatError(f"nodes[{i}]: duplicate node id {node_id!r}")
        if not isinstance(node["transfer"], dict) or not node["transfer"]:
            raise FileFormatError(f"nodes[{i}].transfer: expected a nonempty object")
        transfer = {}
        for prop, text in node["transfer"].items():
            if prop == INPUT_NAME:
                raise FileFormatError(
                    f"nodes[{i}].transfer: property name {INPUT_NAME!r} is reserved"
                )
            text = _jsonio.load_string(text, f"nodes[{i}].transfer[{prop!r}]")
            try:
                transfer[str(prop)] = parse_formula(text)
            except ValueError as exc:
                raise FileFormatError(f"nodes[{i}].transfer[{prop!r}]: {exc}") from None
        transfers[node_id] = transfer

    edges = _jsonio.load_items(
        data["edges"], "edges", lambda raw: _jsonio.load_edge(raw, Edge, ("alpha",)))

    seeds: dict[str, Valuation] = {}
    seed = data.get("seed", {})
    if not isinstance(seed, dict):
        raise FileFormatError(f"seed: expected an object, got {type(seed).__name__}")
    for node_id, valuation in seed.items():
        if not isinstance(valuation, dict):
            raise FileFormatError(f"seed[{node_id!r}]: expected an object")
        seeds[str(node_id)] = {
            str(prop): _jsonio.load_value(v, f"seed[{node_id!r}][{prop!r}]", interval=interval)
            for prop, v in valuation.items()
        }

    start = _jsonio.load_string(data["start"], "start")
    return FlowGraph(transfers, edges, start, seeds), settings


def load_graph_file(path: str) -> tuple[FlowGraph, _jsonio.Settings]:
    return graph_from_json_dict(_jsonio.load_file(path))
