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
moves it by less than epsilon.  ``lcm_pipeline`` passes these arrays from
the problem's rows up to the report, and its ``LcmResult`` holds every
stage's matrices.

Boundary conventions (identical in all modes): the entry block's available
set is just its downward-exposed set, the exit block's anticipated set is
just its upward-exposed set, and nothing is "later" than the entry
(LaterIn(entry) = 0).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, Sequence, Union

import numpy as np

from . import _jsonio
from ._jsonio import LCM_MODES as MODES, FileFormatError
from .truth import LogicFamily, SolverConfig, TruthInterval, _Frozen, _Record, _set, truth_value

__all__ = [
    "LcmEdge",
    "LcmProblem",
    "LcmResult",
    "WidthMismatchError",
    "validate_problem",
    "lcm_pipeline",
    "join_targets",
    "load_problem_file",
    "problem_from_json_dict",
]

Value = Union[float, TruthInterval]
BlockMatrix = dict[str, list[Value]]


class WidthMismatchError(ValueError):
    pass


class LcmEdge(_Frozen):
    _fields = ("src", "dst", "alpha", "alpha_back")
    src: str
    dst: str
    alpha: float         # forward contribution, normalized over dst's in-edges
    alpha_back: float    # backward contribution, normalized over src's out-edges

    def __init__(self, src: str, dst: str, alpha: float, alpha_back: float) -> None:
        _set(self, "src", src)
        _set(self, "dst", dst)
        _set(self, "alpha", truth_value(alpha))
        _set(self, "alpha_back", truth_value(alpha_back))


class LcmProblem(_Record):
    _fields = ("blocks", "edges", "exprs", "dee", "uee", "kill", "entry", "exit")

    def __init__(self, blocks: list[str], edges: list[LcmEdge], exprs: list[str],
                 dee: BlockMatrix, uee: BlockMatrix, kill: BlockMatrix, entry: str,
                 exit: str) -> None:
        self.blocks, self.edges, self.exprs = blocks, edges, exprs
        self.dee, self.uee, self.kill = dee, uee, kill
        self.entry, self.exit = entry, exit


def validate_problem(problem: LcmProblem, mode: str) -> list[str]:
    """Structural and per-mode value checks (rows in bulk, walked on failure); returns errors."""
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
            if mode == "interval" or _jsonio.all_of(float, row) and (
                    mode == "fuzzy" or row.count(0.0) + row.count(1.0) == width):
                continue  # nothing to name
            for k, v in enumerate(row):
                if isinstance(v, TruthInterval):
                    errors.append(f"{name}[{b!r}][{k}]: interval value in {mode} mode")
                elif mode == "crisp" and v not in (0.0, 1.0):
                    errors.append(f"{name}[{b!r}][{k}]: crisp mode needs 0or1, got {v!r}")
        for b in matrix:
            if b not in blocks:
                errors.append(f"{name}: row for unknown block {b!r}")
    return errors


# -- the result -----------------------------------------------------------------


_MATRICES = ("av_out", "an_in", "an_out", "earliest", "later_in", "later_out", "insert", "delete")
_EDGE_MATRICES = ("earliest", "later_out", "insert")


class LcmResult(_Frozen):
    """Every matrix of a pipeline run, held as a read-only (rows, exprs, w)
    array keyed by matrix name, with the block ids and (src, dst) edge keys
    that index its rows.  ``av_out`` ... ``delete`` are read-only views of
    them (block or edge -> row, of ``TruthInterval``s in interval mode), each
    built on its first read; ``to_json_dict`` prints from the arrays and
    builds none.  Two results are equal when their reports are."""

    _fields = ("mode", "exprs", "converged", "_blocks", "_edges", "_arrays")

    def __init__(self, mode: str, exprs: list[str], converged: bool, _blocks: list[str],
                 _edges: list[tuple[str, str]],
                 _arrays: dict[str, np.ndarray]) -> None:  # av_out ... delete, in report order
        for values in _arrays.values():
            values.flags.writeable = False
        self.__dict__.update(mode=mode, exprs=exprs, converged=converged, _blocks=_blocks,
                             _edges=_edges, _arrays=_arrays)

    def __getattr__(self, name: str) -> Mapping:
        if name not in _MATRICES:
            raise AttributeError(name)
        keys = self._edges if name in _EDGE_MATRICES else self._blocks
        values = self._arrays[name]
        if values.shape[-1] == 1:
            rows = values[..., 0].tolist()
        else:
            rows = [[TruthInterval(lo, hi) for lo, hi in row] for row in values.tolist()]
        self.__dict__[name] = MappingProxyType(dict(zip(keys, rows)))
        return self.__dict__[name]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LcmResult) and self.to_json_dict() == other.to_json_dict()

    def to_json_dict(self) -> dict:
        out: dict[str, Any] = {"mode": self.mode, "exprs": list(self.exprs)}
        for name, values in self._arrays.items():
            # Rows of floats, or of [lo, hi] lists.
            rows = (values[..., 0] if values.shape[-1] == 1 else values).tolist()
            if name in _EDGE_MATRICES:
                out[name] = [{"from": s, "to": d, "values": r}
                             for (s, d), r in zip(self._edges, rows)]
            else:
                out[name] = dict(zip(self._blocks, rows))
        out["converged"] = self.converged
        return out


# -- one problem in one mode ------------------------------------------------------


class _Run:
    """One problem in one mode, validated on construction (an invalid one
    raises a ValueError whose ``errors`` lists the violations): the mode's
    connectives, from ``cfg.family``, and fixed-point settings ``cfg`` (crisp
    mode ignores both), the edges as block indices with each direction's
    ``_Merges``, and rows as (blocks, exprs, w) arrays in block order.  The
    complement reverses a (lo, hi) pair; the T-norm works endpoint-wise and
    gives the scalar's bits on every element.  Only Frank's pairs are
    re-sorted against rounding, as the interval reading of ``formula`` does:
    the other T-norms are monotone in floating point, so they keep ordered
    pairs ordered.  Crisp mode takes min whatever the family: some are not
    exact on 0/1 (Frank's T(1, 1) rounds below 1 for small s)."""

    def __init__(self, problem: LcmProblem, mode: str, cfg: SolverConfig):
        errors = validate_problem(problem, mode)
        if errors:
            exc = ValueError("invalid LCM problem: " + "; ".join(errors))
            exc.errors = errors
            raise exc
        self.problem, self.crisp, self.cfg = problem, mode == "crisp", cfg
        self.width = 2 if mode == "interval" else 1
        family = LogicFamily.minmax() if self.crisp else cfg.family
        self.term, self._tnorm = family._term, family._tnorm_terms
        self.resort = self.width == 2 and family.kind == "frank"
        index = {b: i for i, b in enumerate(problem.blocks)}
        self.entry = index[problem.entry]
        self.keys = [(e.src, e.dst) for e in problem.edges]
        self.src = np.array([index[s] for s, _ in self.keys], dtype=int)
        self.dst = np.array([index[d] for _, d in self.keys], dtype=int)
        self.forward = _Merges(self.dst, len(index), [e.alpha for e in problem.edges])
        self.backward = _Merges(self.src, len(index), [e.alpha_back for e in problem.edges])

    def stack(self, matrix: Mapping) -> np.ndarray:
        """``matrix[b]`` for each block b as a (blocks, exprs, w) array."""
        blocks = self.problem.blocks
        if self.width == 1:
            rows = [matrix[b] for b in blocks]
        else:
            rows = [[(v.lo, v.hi) if isinstance(v, TruthInterval) else (v, v) for v in matrix[b]]
                    for b in blocks]
        # Adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is,
        # so library-built rows print as file-loaded ones (truth_value) do.
        shape = (len(blocks), len(self.problem.exprs), self.width)
        out = np.array(rows, dtype=float).reshape(shape) + 0.0
        if not ((out >= 0.0) & (out <= 1.0)).all():
            # Clamp rounding noise and reject the rest, as the scalar norms do.
            out = np.vectorize(truth_value, otypes=[float])(out)
        return out

    def conj(self, x: np.ndarray, y: np.ndarray, *, terms: bool = False) -> np.ndarray:
        """x & y; with ``terms``, x and y went through ``term`` already."""
        out = self._tnorm(x, y) if terms else self._tnorm(self.term(x), self.term(y))
        if self.resort:
            swap = out[..., 0] > out[..., 1]
            if swap.any():  # what np.sort does to the pairs, at less cost
                out[swap] = out[swap][:, ::-1]
        return out

    def neg(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - (x[..., ::-1] if self.width == 2 else x)

    def disj(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.neg(self.conj(self.neg(x), self.neg(y)))

    def snap(self, values: np.ndarray) -> np.ndarray:
        if self.crisp or self.cfg.quantize_bits is None:
            return values
        scale = float(2**self.cfg.quantize_bits)
        return np.minimum(1.0, np.round(values * scale) / scale)


# -- the fixed-point engine --------------------------------------------------------


class _Merges:
    """One direction's merges: edge i feeds merge ``dst[i]`` with weight
    ``weight[i]``, as its ``rank[i]``-th link; ``count`` links go into each."""

    def __init__(self, dst: np.ndarray, n_merges: int, weight: list[float]):
        self.dst, self.weight, self.count = dst, weight, np.bincount(dst, minlength=n_merges)
        order, first = np.argsort(dst, kind="stable"), np.add.accumulate(self.count) - self.count
        self.rank = np.empty_like(order)
        self.rank[order] = np.arange(len(dst)) - np.repeat(first, self.count)


class _Links:
    """The inputs of each merge: link i carries row ``src[i]`` into merge
    ``merges.dst[i]``, in ``problem.edges`` order.

    They are held as (slots, merges) tables.  Slot j holds every merge's
    j-th link, so meeting slot after slot adds each merge's inputs one by one
    in edge order.  A merge with fewer links is padded with links of weight 0
    from row 0 (x + 0 * v == x for x >= 0), which the crisp min skips.
    ``gather`` indexes old rows then new: a rows-first sweep has computed a
    link's new row when its block comes before the merge's."""

    def __init__(self, src: np.ndarray, merges: _Merges):
        rank, dst, count = merges.rank, merges.dst, merges.count
        shape = (count.max(initial=0), len(count))
        self.src, self.weight = np.zeros(shape, dtype=int), np.zeros(shape + (1, 1))
        link, fresh = np.zeros((2,) + shape, dtype=bool)
        self.src[rank, dst], self.weight[rank, dst, 0, 0], link[rank, dst] = src, merges.weight, True
        fresh[rank, dst] = src < dst
        self.link, self.gather = link[..., None, None], self.src + len(count) * fresh
        self.has_input = np.minimum(count, 1.0)[:, None, None]

    def meet(self, rows: np.ndarray, crisp: bool, old: np.ndarray | None = None) -> np.ndarray:
        """Per merge, from its links' rows: the min (crisp) or the weighted
        sum clamped to [0,1]; 0 for a merge with no links.  With ``old``
        (rows first), one gather reads each link's row from old and new.
        Every term is >= +0.0, so starting from slot 0's term and clamping
        with ``minimum`` give the bits of summing from 0.0 and clipping."""
        values = rows[self.src] if old is None else np.concatenate((old, rows))[self.gather]
        if crisp:
            out = np.minimum.reduce(values, axis=0, initial=1.0, where=self.link)
            return np.minimum(out, self.has_input, out=out)
        terms = self.weight * values
        out = terms[0] if len(terms) else np.zeros(terms.shape[1:])  # no links: no edges
        for term in terms[1:]:
            out += term
        return np.minimum(out, 1.0, out=out)


def _fixpoint(
    run: _Run,
    gen: np.ndarray,
    keep: np.ndarray,
    reads: np.ndarray | None,
    links: _Links,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Solve, for every expression column at once,

        row[r]   = gen[r] | held[reads[r]],  held[m] = merge[m] & keep[m]
        merge[m] = meet of the rows linked into m

    by Gauss-Seidel sweeps in a fixed node order.  ``held`` is taken per
    merge and then gathered, so each merge's T-norm is evaluated once however
    many rows read it.  With ``reads`` None (stage 1), row r reads merge r and
    the order is row b, merge b for each block b: a sweep's rows read the
    last sweep's merges, and a merge reads this sweep's rows only from blocks
    before it.  Otherwise (Later) every merge comes first, reading the last
    sweep's rows, and every row then reads this sweep's merges.
    Each column freezes at its first sweep whose change, summed in node
    order, is below epsilon; a node's change, |new - old| (lo's plus hi's
    for an interval), is written straight into the step table.

    Returns the rows, the merges recomputed from the final rows, and
    whether every column converged.
    """
    crisp, width = run.crisp, run.width
    start = 1.0 if crisp else 0.0
    rows = np.full(gen.shape, start)
    merges = np.full((links.src.shape[1],) + gen.shape[1:], start)
    # The T-norm operands that stay the same over the solve: !gen and keep.
    not_gen, keep = run.term(run.neg(gen)), run.term(keep)

    def transfer(m: np.ndarray) -> np.ndarray:
        not_held = run.term(run.neg(run.conj(run.term(m), keep, terms=True)))
        if reads is not None:
            not_held = not_held[reads]
        return run.snap(run.neg(run.conj(not_gen, not_held, terms=True)))

    n_merges = len(merges)
    # From top, every crisp sweep but the last clears at least one bit; a
    # crisp residual counts flipped bits: below one, nothing changed.
    limit = len(rows) + n_merges + 1 if crisp else run.cfg.max_iters
    epsilon = 1.0 if crisp else run.cfg.epsilon
    active = np.arange(gen.shape[1])
    cur_rows, cur_merges = rows, merges
    for _ in range(limit):
        if not active.size:
            break
        if reads is None:
            new_rows = transfer(cur_merges)
            new_merges = run.snap(links.meet(new_rows, crisp, cur_rows))
        else:
            new_merges = run.snap(links.meet(cur_rows, crisp))
            new_rows = transfer(new_merges)
        # Each node's change, summed in node order by accumulate (a reduce may add pairwise).
        steps = np.empty((len(rows) + n_merges, active.size, width))
        at = (steps[0::2], steps[1::2]) if reads is None else (steps[n_merges:], steps[:n_merges])
        np.subtract(new_rows, cur_rows, out=at[0])
        np.subtract(new_merges, cur_merges, out=at[1])
        np.abs(steps, out=steps)
        steps = np.add.reduce(steps, axis=-1, keepdims=True) if width == 2 else steps
        cur_rows, cur_merges = new_rows, new_merges
        done = np.add.accumulate(steps)[-1, :, 0] < epsilon
        if np.count_nonzero(done):
            rows[:, active[done]], merges[:, active[done]] = cur_rows[:, done], cur_merges[:, done]
            more = ~done
            active, cur_rows, cur_merges = active[more], cur_rows[:, more], cur_merges[:, more]
            not_gen, keep = not_gen[:, more], keep[:, more]
    rows[:, active], merges[:, active] = cur_rows, cur_merges
    return rows, links.meet(rows, crisp), not active.size


# -- the stages on arrays --------------------------------------------------------


def _stage1(run: _Run, gen: np.ndarray, keep: np.ndarray, backward: bool):
    """AvOut(b) = DEE(b) | (AvIn(b) & !Kill(b)), or (``backward``) AnOut with UEE
    for DEE and AnIn over successors: the rows, merges and convergence."""
    links = _Links(run.dst, run.backward) if backward else _Links(run.src, run.forward)
    return _fixpoint(run, gen, keep, None, links)


def _earliest(run: _Run, av_out, an_in, an_out, kill) -> np.ndarray:
    """Earliest(i,j) = AnOut(j) & !AvOut(i) & (Kill(i) | !AnIn(i)), without
    the last factor when i is the entry."""
    first = run.conj(an_out[run.dst], run.neg(av_out[run.src]))
    blocked = run.disj(kill[run.src], run.neg(an_in[run.src]))
    return np.where((run.src == run.entry)[:, None, None], first, run.conj(first, blocked))


def _later(run: _Run, ear: np.ndarray, not_uee: np.ndarray):
    """LaterOut(i,j) = Earliest(i,j) | (LaterIn(i) & !UEE(i)) per edge, LaterIn
    per block (the forward merge of LaterOut) and whether they converged."""
    links = _Links(np.arange(len(run.keys)), run.forward)
    return _fixpoint(run, ear, not_uee, run.src, links)


def _insert_delete(run: _Run, later_in, later_out, uee):
    """Insert(i,j) = LaterOut(i,j) & !LaterIn(j); Delete(k) = UEE(k) &
    !LaterIn(k), and 0 for the entry."""
    not_later = run.neg(later_in)
    delete = run.conj(uee, not_later)
    delete[run.entry] = 0.0
    return run.conj(later_out, not_later[run.dst]), delete


def lcm_pipeline(
    problem: LcmProblem,
    mode: str,
    family: LogicFamily | None = None,
    cfg: SolverConfig | None = None,
) -> LcmResult:
    """Run the four stages in order and collect every matrix.

    The logic family and the stopping rule come from ``cfg``, by default
    ``SolverConfig(family or LogicFamily.minmax())``; a ``family`` given
    beside a ``cfg`` must equal ``cfg.family``.  The problem is validated,
    and its rows stacked, once per call; nothing is cached on it, so edits
    to its rows show in the next call."""
    if cfg is None:
        cfg = SolverConfig(family or LogicFamily.minmax())
    elif family is not None and family != cfg.family:
        raise ValueError(f"family {family} differs from cfg.family {cfg.family}")
    run = _Run(problem, mode, cfg)
    dee, uee, kill = map(run.stack, (problem.dee, problem.uee, problem.kill))
    not_kill = run.neg(kill)
    av_out, _, av_ok = _stage1(run, dee, not_kill, backward=False)
    an_out, an_in, an_ok = _stage1(run, uee, not_kill, backward=True)
    ear = _earliest(run, av_out, an_in, an_out, kill)
    later_out, later_in, later_ok = _later(run, ear, run.neg(uee))
    insert, delete = _insert_delete(run, later_in, later_out, uee)
    arrays = (av_out, an_in, an_out, ear, later_in, later_out, insert, delete)
    return LcmResult(mode, list(problem.exprs), av_ok and an_ok and later_ok, list(problem.blocks),
                     run.keys, dict(zip(_MATRICES, arrays)))


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


def problem_from_json_dict(data: Any) -> tuple[LcmProblem, _jsonio.Settings]:
    _jsonio.check_keys(
        data, "problem",
        ["entry", "exit", "blocks", "edges", "exprs", "dee", "uee", "kill"],
        ["logic", "mode", "epsilon", "max_iters"],
    )
    settings = _jsonio.load_settings(data, MODES, "fuzzy")
    interval = settings.mode == "interval"

    blocks = _jsonio.load_strings(data["blocks"], "blocks")
    edges = _jsonio.load_items(data["edges"], "edges",
                               lambda raw: _jsonio.load_edge(raw, LcmEdge, ("alpha", "alpha_back")))
    exprs = _jsonio.load_strings(data["exprs"], "exprs")

    def matrix(name: str) -> BlockMatrix:
        if not isinstance(data[name], dict):
            raise FileFormatError(f"{name}: expected an object of block rows")
        rows = {}
        for b, row in data[name].items():
            try:  # the row's context is formatted only when it fails
                rows[str(b)] = _jsonio.load_row(row, "", interval=interval)
            except FileFormatError as exc:
                raise FileFormatError(f"{name}[{b!r}]{exc}") from None
        return rows

    problem = LcmProblem(
        blocks=blocks,
        edges=edges,
        exprs=exprs,
        dee=matrix("dee"),
        uee=matrix("uee"),
        kill=matrix("kill"),
        entry=_jsonio.load_string(data["entry"], "entry"),
        exit=_jsonio.load_string(data["exit"], "exit"),
    )
    return problem, settings


def load_problem_file(path: str) -> tuple[LcmProblem, _jsonio.Settings]:
    return problem_from_json_dict(_jsonio.load_file(path))
