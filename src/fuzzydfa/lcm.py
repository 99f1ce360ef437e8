"""Knoop-Ruthing-Steffen lazy code motion as four staged analyses, runnable
in crisp (bit-vector), fuzzy (type-1) and interval (type-2) modes.

Inputs are per-block predicate rows over an ordered expression list:

* ``dee``  - expression is downward exposed in the block,
* ``uee``  - expression is upward exposed in the block,
* ``kill`` - the block updates one of the expression's operands.

The four stages: (1) availability (forward) and anticipatability (backward)
fixed points, (2) the pointwise Earliest predicate per edge, (3) the Later
fixed point over edges, (4) the pointwise Insert (edge gains an evaluation)
and Delete (block loses one) predicates.

One array engine serves every mode.  Values are float arrays of shape
(rows, exprs, w), with w = 1 for scalars and w = 2 for (lo, hi) intervals,
and each fixed point is swept over all expressions at once.  The modes
differ only in what they pass the engine.  Crisp mode is the classical
bit-vector algorithm: start from top, meet = min, iterate until nothing
changes, and exact connectives whatever the logic family.  Fuzzy and
interval modes start from zero, replace the meet with the alpha-weighted
average of the flow-graph framework, and stop each expression once a sweep
moves it by less than epsilon.

Boundary conventions (identical in all modes): the entry block's available
set is just its downward-exposed set, the exit block's anticipated set is
just its upward-exposed set, and nothing is "later" than the entry
(LaterIn(entry) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence, Union

import numpy as np

from . import _jsonio
from ._jsonio import LCM_MODES as MODES, FileFormatError
from .truth import LogicFamily, SolverConfig, TruthInterval, truth_value

__all__ = [
    "LcmEdge",
    "LcmProblem",
    "LcmResult",
    "StageMatrices",
    "LaterMatrices",
    "WidthMismatchError",
    "validate_problem",
    "availability",
    "anticipatability",
    "earliest",
    "later",
    "insert_delete",
    "lcm_pipeline",
    "join_targets",
    "load_problem_file",
    "problem_from_json_dict",
    "problem_to_json_dict",
    "LcmSettings",
]

Value = Union[float, TruthInterval]
BlockMatrix = dict[str, list[Value]]
EdgeMatrix = dict[tuple[str, str], list[Value]]


class WidthMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class LcmEdge:
    src: str
    dst: str
    alpha: float         # forward contribution, normalized over dst's in-edges
    alpha_back: float    # backward contribution, normalized over src's out-edges

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", truth_value(self.alpha))
        object.__setattr__(self, "alpha_back", truth_value(self.alpha_back))


@dataclass
class LcmProblem:
    blocks: list[str]
    edges: list[LcmEdge]
    exprs: list[str]
    dee: BlockMatrix
    uee: BlockMatrix
    kill: BlockMatrix
    entry: str
    exit: str

    def preds(self, block: str) -> list[LcmEdge]:
        return [e for e in self.edges if e.dst == block]

    def succs(self, block: str) -> list[LcmEdge]:
        return [e for e in self.edges if e.src == block]


def validate_problem(problem: LcmProblem, mode: str) -> list[str]:
    """Structural and per-mode value-domain checks; returns error strings."""
    errors: list[str] = []
    if mode not in MODES:
        return [f"unknown mode {mode!r}; expected one of {MODES}"]
    blocks = set(problem.blocks)
    if len(blocks) != len(problem.blocks):
        errors.append("duplicate block ids")
    if len(set(problem.exprs)) != len(problem.exprs):
        errors.append("duplicate expression names")
    for endpoint in (problem.entry, problem.exit):
        if endpoint not in blocks:
            errors.append(f"no block {endpoint!r}")
    # Weight sums per block, accumulated in edge order; a block absent from
    # a sum has no in-edges (forward) or no out-edges (backward).
    forward: dict[str, float] = {}
    backward: dict[str, float] = {}
    seen_edges = set()
    for e in problem.edges:
        if e.src not in blocks or e.dst not in blocks:
            errors.append(f"dangling edge {e.src}->{e.dst}")
        if (e.src, e.dst) in seen_edges:
            errors.append(f"duplicate edge {e.src}->{e.dst}")
        seen_edges.add((e.src, e.dst))
        if e.src == e.dst:
            errors.append(f"self loop on {e.src!r}")
        if e.dst == problem.entry:
            errors.append(f"edge into entry block: {e.src}->{e.dst}")
        if e.src == problem.exit:
            errors.append(f"edge out of exit block: {e.src}->{e.dst}")
        forward[e.dst] = forward.get(e.dst, 0) + e.alpha
        backward[e.src] = backward.get(e.src, 0) + e.alpha_back

    for b in problem.blocks:
        if b != problem.entry and b not in forward:
            errors.append(f"block {b!r} has no predecessors and is not the entry")
        if b != problem.exit and b not in backward:
            errors.append(f"block {b!r} has no successors and is not the exit")
        if b in forward and abs(forward[b] - 1.0) > 1e-9:
            errors.append(f"forward weights into {b!r} sum to {forward[b]!r}")
        if b in backward and abs(backward[b] - 1.0) > 1e-9:
            errors.append(f"backward weights out of {b!r} sum to {backward[b]!r}")

    width = len(problem.exprs)
    for name, matrix in (("dee", problem.dee), ("uee", problem.uee), ("kill", problem.kill)):
        for b in problem.blocks:
            row = matrix.get(b)
            if row is None:
                errors.append(f"{name}: missing row for block {b!r}")
                continue
            if len(row) != width:
                errors.append(f"{name}[{b!r}]: expected {width} entries, got {len(row)}")
                continue
            for k, v in enumerate(row):
                if isinstance(v, TruthInterval):
                    if mode != "interval":
                        errors.append(f"{name}[{b!r}][{k}]: interval value in {mode} mode")
                elif mode == "crisp" and v not in (0.0, 1.0):
                    errors.append(f"{name}[{b!r}][{k}]: crisp mode needs 0or1, got {v!r}")
        for b in matrix:
            if b not in blocks:
                errors.append(f"{name}: row for unknown block {b!r}")
    return errors


def _require_valid(problem: LcmProblem, mode: str) -> None:
    errors = validate_problem(problem, mode)
    if errors:
        raise ValueError("invalid LCM problem: " + "; ".join(errors))


# -- stage results -------------------------------------------------------------


@dataclass
class StageMatrices:
    """A step-(1) analysis: per-block solved values plus the merged
    (pre-transfer) values the pointwise stages consume."""

    out: BlockMatrix      # availability: AvOut(b);   anticipatability: AnOut(b)
    merged: BlockMatrix   # availability: AvIn(b);    anticipatability: AnIn(b)
    converged: bool = True


@dataclass
class LaterMatrices:
    later_in: BlockMatrix
    later_out: EdgeMatrix
    converged: bool = True


@dataclass
class LcmResult:
    mode: str
    exprs: list[str]
    av_out: BlockMatrix
    an_in: BlockMatrix
    an_out: BlockMatrix
    earliest: EdgeMatrix
    later_in: BlockMatrix
    later_out: EdgeMatrix
    insert: EdgeMatrix
    delete: BlockMatrix
    converged: bool

    def to_json_dict(self) -> dict:
        def blocks(matrix: BlockMatrix) -> dict:
            return {b: _jsonio.dump_row(row) for b, row in matrix.items()}

        def edges(matrix: EdgeMatrix) -> list:
            return [
                {"from": src, "to": dst, "values": _jsonio.dump_row(row)}
                for (src, dst), row in matrix.items()
            ]

        return {
            "mode": self.mode,
            "exprs": list(self.exprs),
            "av_out": blocks(self.av_out),
            "an_in": blocks(self.an_in),
            "an_out": blocks(self.an_out),
            "earliest": edges(self.earliest),
            "later_in": blocks(self.later_in),
            "later_out": edges(self.later_out),
            "insert": edges(self.insert),
            "delete": blocks(self.delete),
            "converged": self.converged,
        }


# -- connectives on (..., w) arrays ----------------------------------------------


class _Logic:
    """A logic family's connectives on the last axis: one value (w = 1) or
    a (lo, hi) pair (w = 2).  The complement reverses a pair; the T-norm
    works endpoint-wise and re-sorts the pair against rounding, as
    ``LogicFamily.interval_tnorm`` does.  ``LogicFamily.tnorm_array`` gives
    the scalar T-norm's bits on every element, Frank's included, without a
    Python call per element beyond Frank's expm1/log1p."""

    def __init__(self, family: LogicFamily, width: int):
        self.width = width
        self._tnorm = family.tnorm_array

    def conj(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = self._tnorm(x, y)
        return np.sort(out, axis=-1) if self.width == 2 else out

    @staticmethod
    def neg(x: np.ndarray) -> np.ndarray:
        return 1.0 - x[..., ::-1]

    def disj(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.neg(self.conj(self.neg(x), self.neg(y)))


def _logic(mode: str, family: LogicFamily) -> _Logic:
    if mode == "crisp":
        # min and 1-x are exact on 0/1; some families are not (Frank's
        # T(1, 1) rounds below 1 for small s).
        return _Logic(LogicFamily.minmax(), 1)
    return _Logic(family, 2 if mode == "interval" else 1)


def _stack(matrix: Mapping, keys: Sequence, n_exprs: int, width: int) -> np.ndarray:
    """``matrix[k]`` for each of ``keys`` as a (keys, exprs, width) array."""
    if width == 1:
        rows = [matrix[k] for k in keys]
    else:
        rows = [
            [(v.lo, v.hi) if isinstance(v, TruthInterval) else (v, v) for v in matrix[k]]
            for k in keys
        ]
    # Adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is,
    # so library-built rows print as file-loaded ones (truth_value) do.
    out = np.array(rows, dtype=float).reshape(len(keys), n_exprs, width) + 0.0
    if not ((out >= 0.0) & (out <= 1.0)).all():
        # Clamp rounding noise and reject the rest, as the scalar norms do.
        out = np.vectorize(truth_value, otypes=[float])(out)
    return out


def _unstack(keys: Sequence, values: np.ndarray) -> dict:
    if values.shape[-1] == 1:
        return dict(zip(keys, values[..., 0].tolist()))
    return {k: [TruthInterval(lo, hi) for lo, hi in row] for k, row in zip(keys, values.tolist())}


# -- the fixed-point engine --------------------------------------------------------


class _Links:
    """The inputs of each merge: link i carries row ``src[i]`` into merge
    ``dst[i]`` with weight ``weight[i]``, in ``problem.edges`` order."""

    def __init__(self, n_merges: int, src: np.ndarray, dst: np.ndarray, weight: list[float]):
        self.n_merges = n_merges
        self.src = src
        self.dst = dst
        self.weight = np.array(weight, dtype=float)[:, None, None]
        self.has_input = np.zeros((n_merges, 1, 1), dtype=bool)
        self.has_input[self.dst] = True
        # Slot j holds every merge's j-th link, so meeting slot after slot
        # adds each merge's inputs one by one in edge order.
        rank, count = [], [0] * n_merges
        for d in self.dst.tolist():
            rank.append(count[d])
            count[d] += 1
        rank = np.array(rank, dtype=int)
        self.slots = [np.flatnonzero(rank == j) for j in range(max(count, default=0))]

    def meet(self, inputs: np.ndarray, crisp: bool) -> np.ndarray:
        """Per merge, from its links' values: the min (crisp) or the
        weighted sum clamped to [0,1]; 0 for a merge with no links."""
        shape = (self.n_merges,) + inputs.shape[1:]
        if crisp:
            out = np.broadcast_to(self.has_input, shape).astype(float)
            for j in self.slots:
                out[self.dst[j]] = np.minimum(out[self.dst[j]], inputs[j])
            return out
        out = np.zeros(shape)
        for j in self.slots:
            out[self.dst[j]] += self.weight[j] * inputs[j]
        return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class _Engine:
    """What separates the modes: connectives, meet, start and stopping."""

    logic: _Logic
    crisp: bool
    epsilon: float
    max_iters: int | None   # None: until nothing changes
    quantize_bits: int | None

    def snap(self, values: np.ndarray) -> np.ndarray:
        if self.quantize_bits is None:
            return values
        scale = float(2**self.quantize_bits)
        return np.minimum(1.0, np.round(values * scale) / scale)


def _engine(mode: str, family: LogicFamily, cfg: SolverConfig | None) -> _Engine:
    logic = _logic(mode, family)
    if mode == "crisp":
        # A crisp residual counts flipped bits: below one, nothing changed.
        return _Engine(logic, True, 1.0, None, None)
    if cfg is None:
        cfg = SolverConfig(family=family)
    return _Engine(logic, False, cfg.epsilon, cfg.max_iters, cfg.quantize_bits)


def _fixpoint(
    eng: _Engine,
    gen: np.ndarray,
    keep: np.ndarray,
    reads: np.ndarray,
    links: _Links,
    *,
    rows_first: bool,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Solve, for every expression column at once,

        row[r]   = gen[r] | (merge[reads[r]] & keep[r])
        merge[m] = meet of the rows linked into m

    by Gauss-Seidel sweeps in a fixed node order.  With ``rows_first`` the
    order is row b, merge b for each block b: a sweep's rows read the last
    sweep's merges, and a merge reads this sweep's rows only from blocks
    before it.  Otherwise every merge comes first, reading the last sweep's
    rows, and every row then reads this sweep's merges.  Each column
    freezes at its first sweep whose change, summed in node order, is below
    epsilon.

    Returns the rows, the merges recomputed from the final rows, and
    whether every column converged.
    """
    logic = eng.logic
    start = 1.0 if eng.crisp else 0.0
    rows = np.full(gen.shape, start)
    merges = np.full((links.n_merges,) + gen.shape[1:], start)
    fresh = (links.src < links.dst)[:, None, None]
    # From top, every crisp sweep but the last clears at least one bit.
    limit = len(rows) + len(merges) + 1 if eng.max_iters is None else eng.max_iters
    active = np.arange(gen.shape[1])
    for _ in range(limit):
        if not active.size:
            break
        old_rows, old_merges = rows[:, active], merges[:, active]
        g, k = gen[:, active], keep[:, active]

        def transfer(m: np.ndarray) -> np.ndarray:
            return eng.snap(logic.disj(g, logic.conj(m[reads], k)))

        if rows_first:
            new_rows = transfer(old_merges)
            inputs = np.where(fresh, new_rows[links.src], old_rows[links.src])
            new_merges = eng.snap(links.meet(inputs, eng.crisp))
        else:
            new_merges = eng.snap(links.meet(old_rows[links.src], eng.crisp))
            new_rows = transfer(new_merges)
        row_change = np.abs(new_rows - old_rows).sum(axis=-1)
        merge_change = np.abs(new_merges - old_merges).sum(axis=-1)
        if rows_first:
            change = np.stack((row_change, merge_change), axis=1).reshape(-1, active.size)
        else:
            change = np.concatenate((merge_change, row_change))
        rows[:, active] = new_rows
        merges[:, active] = new_merges
        active = active[~(np.cumsum(change, axis=0)[-1] < eng.epsilon)]
    return rows, links.meet(rows[links.src], eng.crisp), not active.size


def _edge_ends(problem: LcmProblem) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
    index = {b: i for i, b in enumerate(problem.blocks)}
    keys = [(e.src, e.dst) for e in problem.edges]
    src = np.array([index[s] for s, _ in keys], dtype=int)
    dst = np.array([index[d] for _, d in keys], dtype=int)
    return keys, src, dst


def _stage1(problem, mode, family, cfg, backward: bool) -> StageMatrices:
    _require_valid(problem, mode)
    eng = _engine(mode, family, cfg)
    blocks, n, width = problem.blocks, len(problem.exprs), eng.logic.width
    _, src, dst = _edge_ends(problem)
    if backward:
        links = _Links(len(blocks), dst, src, [e.alpha_back for e in problem.edges])
    else:
        links = _Links(len(blocks), src, dst, [e.alpha for e in problem.edges])
    gen = _stack(problem.uee if backward else problem.dee, blocks, n, width)
    keep = eng.logic.neg(_stack(problem.kill, blocks, n, width))
    out, merged, converged = _fixpoint(eng, gen, keep, np.arange(len(blocks)), links, rows_first=True)
    return StageMatrices(_unstack(blocks, out), _unstack(blocks, merged), converged)


# -- public staged operations ---------------------------------------------------


def availability(
    problem: LcmProblem,
    mode: str,
    family: LogicFamily,
    cfg: SolverConfig | None = None,
) -> StageMatrices:
    """Forward must-analysis: AvOut(b) = DEE(b) | (AvIn(b) & !Kill(b))."""
    return _stage1(problem, mode, family, cfg, backward=False)


def anticipatability(
    problem: LcmProblem,
    mode: str,
    family: LogicFamily,
    cfg: SolverConfig | None = None,
) -> StageMatrices:
    """Backward must-analysis: AnOut(b) = UEE(b) | (AnIn(b) & !Kill(b)),
    with AnIn the merge of AnOut over the block's successors."""
    return _stage1(problem, mode, family, cfg, backward=True)


def earliest(
    problem: LcmProblem,
    av_out: BlockMatrix,
    an_in: BlockMatrix,
    an_out: BlockMatrix,
    mode: str,
    family: LogicFamily,
) -> EdgeMatrix:
    """Pointwise per edge (i,j): the expression is anticipated at j, not
    available after i, and cannot move above i (killed there, or not
    anticipated on leaving i):

        Earliest(i,j) = AnOut(j) & !AvOut(i) & (Kill(i) | !AnIn(i))
        Earliest(entry,j) = AnOut(j) & !AvOut(entry)
    """
    logic = _logic(mode, family)
    blocks, n, width = problem.blocks, len(problem.exprs), logic.width
    keys, src, dst = _edge_ends(problem)

    def at_src(matrix: BlockMatrix) -> np.ndarray:
        return _stack(matrix, blocks, n, width)[src]

    first = logic.conj(_stack(an_out, blocks, n, width)[dst], logic.neg(at_src(av_out)))
    blocked = logic.disj(at_src(problem.kill), logic.neg(at_src(an_in)))
    from_entry = np.array([s == problem.entry for s, _ in keys])[:, None, None]
    return _unstack(keys, np.where(from_entry, first, logic.conj(first, blocked)))


def later(
    problem: LcmProblem,
    earliest_m: EdgeMatrix,
    mode: str,
    family: LogicFamily,
    cfg: SolverConfig | None = None,
) -> LaterMatrices:
    """Step (3): the fixed point placing evaluations as late as possible.

        LaterOut(i,j) = Earliest(i,j) | (LaterIn(i) & !UEE(i))

    with LaterIn(j) the forward merge of LaterOut over j's in-edges."""
    _require_valid(problem, mode)
    eng = _engine(mode, family, cfg)
    blocks, n, width = problem.blocks, len(problem.exprs), eng.logic.width
    keys, src, dst = _edge_ends(problem)
    ear = _stack(earliest_m, keys, n, width)
    hold = eng.logic.neg(_stack(problem.uee, blocks, n, width))[src]
    links = _Links(len(blocks), np.arange(len(keys)), dst, [e.alpha for e in problem.edges])
    out, later_in, converged = _fixpoint(eng, ear, hold, src, links, rows_first=False)
    return LaterMatrices(_unstack(blocks, later_in), _unstack(keys, out), converged)


def insert_delete(
    problem: LcmProblem,
    later_in: BlockMatrix,
    later_out: EdgeMatrix,
    mode: str,
    family: LogicFamily,
) -> tuple[EdgeMatrix, BlockMatrix]:
    """Step (4): Insert(i,j) = LaterOut(i,j) & !LaterIn(j);
    Delete(k) = UEE(k) & !LaterIn(k) for k != entry, else 0."""
    logic = _logic(mode, family)
    blocks, n, width = problem.blocks, len(problem.exprs), logic.width
    keys, _, dst = _edge_ends(problem)
    not_later = logic.neg(_stack(later_in, blocks, n, width))
    insert = logic.conj(_stack(later_out, keys, n, width), not_later[dst])
    delete = logic.conj(_stack(problem.uee, blocks, n, width), not_later)
    delete[blocks.index(problem.entry)] = 0.0
    return _unstack(keys, insert), _unstack(blocks, delete)


def lcm_pipeline(
    problem: LcmProblem,
    mode: str,
    family: LogicFamily | None = None,
    cfg: SolverConfig | None = None,
) -> LcmResult:
    """Run the four stages in order and collect every matrix."""
    family = family or LogicFamily.minmax()
    av = availability(problem, mode, family, cfg)
    an = anticipatability(problem, mode, family, cfg)
    earliest_m = earliest(problem, av.out, an.merged, an.out, mode, family)
    lat = later(problem, earliest_m, mode, family, cfg)
    insert, delete = insert_delete(problem, lat.later_in, lat.later_out, mode, family)
    return LcmResult(
        mode=mode,
        exprs=list(problem.exprs),
        av_out=av.out,
        an_in=an.merged,
        an_out=an.out,
        earliest=earliest_m,
        later_in=lat.later_in,
        later_out=lat.later_out,
        insert=insert,
        delete=delete,
        converged=av.converged and an.converged and lat.converged,
    )


def join_targets(rows: Sequence[Sequence[Value]]) -> list[TruthInterval]:
    """Envelope of per-target predicate rows, elementwise.

    Call targets whose rows agree keep their (degenerate) value; entries
    that disagree widen to cover every target, the non-deterministic
    reading of inlining several candidates.
    """
    if not rows:
        raise ValueError("need at least one predicate row")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise WidthMismatchError(f"row widths differ: {len(row)} vs {width}")
    out = []
    for k in range(width):
        entries = [
            v if isinstance(v, TruthInterval) else TruthInterval.degenerate(v)
            for v in (row[k] for row in rows)
        ]
        out.append(TruthInterval(min(e.lo for e in entries), max(e.hi for e in entries)))
    return out


# -- JSON problem format ----------------------------------------------------------


@dataclass
class LcmSettings:
    mode: str = "fuzzy"
    logic: LogicFamily | None = None
    epsilon: float | None = None
    max_iters: int | None = None


def problem_from_json_dict(data: Any) -> tuple[LcmProblem, LcmSettings]:
    _jsonio.check_keys(
        data, "problem",
        ["entry", "exit", "blocks", "edges", "exprs", "dee", "uee", "kill"],
        ["logic", "mode", "epsilon", "max_iters"],
    )
    settings = LcmSettings()
    if "mode" in data:
        if data["mode"] not in MODES:
            raise FileFormatError(f"mode: expected one of {MODES}, got {data['mode']!r}")
        settings.mode = data["mode"]
    if "logic" in data:
        try:
            settings.logic = LogicFamily.parse(str(data["logic"]))
        except ValueError as exc:
            raise FileFormatError(f"logic: {exc}") from None
    settings.epsilon = _jsonio.load_setting(data, "epsilon")
    settings.max_iters = _jsonio.load_setting(data, "max_iters", integer=True)
    interval = settings.mode == "interval"

    blocks = [str(b) for b in data["blocks"]]
    edges = []
    for i, raw in enumerate(data["edges"]):
        _jsonio.check_keys(raw, f"edges[{i}]", ["from", "to", "alpha", "alpha_back"])
        try:
            edges.append(
                LcmEdge(str(raw["from"]), str(raw["to"]), float(raw["alpha"]), float(raw["alpha_back"]))
            )
        except ValueError as exc:
            raise FileFormatError(f"edges[{i}]: {exc}") from None
    exprs = [str(name) for name in data["exprs"]]

    def matrix(name: str) -> BlockMatrix:
        raw = data[name]
        if not isinstance(raw, dict):
            raise FileFormatError(f"{name}: expected an object of block rows")
        out: BlockMatrix = {}
        for b, row in raw.items():
            if not isinstance(row, list):
                raise FileFormatError(f"{name}[{b!r}]: expected a list")
            out[str(b)] = _jsonio.load_row(row, f"{name}[{b!r}]", interval=interval)
        return out

    problem = LcmProblem(
        blocks=blocks,
        edges=edges,
        exprs=exprs,
        dee=matrix("dee"),
        uee=matrix("uee"),
        kill=matrix("kill"),
        entry=str(data["entry"]),
        exit=str(data["exit"]),
    )
    return problem, settings


def problem_to_json_dict(problem: LcmProblem, settings: LcmSettings | None = None) -> dict:
    out: dict[str, Any] = {}
    if settings is not None:
        out["mode"] = settings.mode
        if settings.logic is not None:
            out["logic"] = str(settings.logic)
    out.update(
        {
            "entry": problem.entry,
            "exit": problem.exit,
            "blocks": list(problem.blocks),
            "edges": [
                {"from": e.src, "to": e.dst, "alpha": e.alpha, "alpha_back": e.alpha_back}
                for e in problem.edges
            ],
            "exprs": list(problem.exprs),
            "dee": {b: _jsonio.dump_row(row) for b, row in problem.dee.items()},
            "uee": {b: _jsonio.dump_row(row) for b, row in problem.uee.items()},
            "kill": {b: _jsonio.dump_row(row) for b, row in problem.kill.items()},
        }
    )
    return out


def load_problem_file(path: str) -> tuple[LcmProblem, LcmSettings]:
    return problem_from_json_dict(_jsonio.load_file(path))
