"""Knoop-Ruthing-Steffen lazy code motion as four staged analyses, runnable
in crisp (bit-vector), fuzzy (type-1) and interval (type-2) modes.

Inputs are per-block predicate rows over an ordered expression list:

* ``dee``  - expression is downward exposed in the block,
* ``uee``  - expression is upward exposed in the block,
* ``kill`` - the block updates one of the expression's operands.

The four stages: (1) the availability (forward) and anticipatability
(backward) fixed points, independent and swept in one loop, (2) the pointwise
Earliest predicate per edge, (3) the Later fixed point over edges, (4) the
pointwise Insert (edge gains an evaluation) and Delete (block loses one).

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

import numbers
import operator
from itertools import chain
from types import MappingProxyType
from typing import Any, Mapping, Sequence, Union

import numpy as np

from . import _jsonio
from ._jsonio import LCM_MODES as MODES, FileFormatError
from .truth import (WEIGHT_SUM_TOL, LogicFamily, SolverConfig, TruthInterval, TruthValueError,
                    _Frozen, _Record, _set, truth_value)

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
    """A parsed problem may hold ``dee``, ``uee``, ``kill`` and ``edges`` as
    arrays, each built on its first read; runs use the arrays until the field
    is read or assigned, and the field after that, so edits show.  Held or not,
    a run's rows are one array per field, checked by ``validate_problem``."""

    _fields = ("blocks", "edges", "exprs", "dee", "uee", "kill", "entry", "exit")
    _arrays: Mapping[str, Any] = MappingProxyType({})  # a parsed problem's, by field name

    def __init__(self, blocks: list[str], edges: list[LcmEdge], exprs: list[str],
                 dee: BlockMatrix, uee: BlockMatrix, kill: BlockMatrix, entry: str,
                 exit: str) -> None:
        self.blocks, self.edges, self.exprs = blocks, edges, exprs
        self.dee, self.uee, self.kill = dee, uee, kill
        self.entry, self.exit = entry, exit

    def __getattr__(self, name: str) -> Any:  # only for an attribute not set
        if name not in self._arrays:
            raise AttributeError(name)
        held = self._arrays[name]
        if name == "edges":
            value = [LcmEdge(*edge) for edge in zip(*held)]
        else:
            value = _rows(self._array_blocks, held)
        setattr(self, name, value)
        return value

    def _held(self, name: str) -> Any:
        """The array (rows) or columns (edges) held for field ``name``, while that
        field is unbuilt and the blocks are the parsed ones; else None."""
        held = name in self._arrays and name not in vars(self) and self.blocks == self._array_blocks
        return self._arrays[name] if held else None

    def _columns(self) -> tuple:
        """The edges as (sources, targets, alphas, alpha_backs)."""
        return self._held("edges") or tuple(
            zip(*[(e.src, e.dst, e.alpha, e.alpha_back) for e in self.edges])) or ((),) * 4


def _rows(keys: Sequence, values: np.ndarray) -> dict:
    """keys[i] -> row i of a (rows, exprs, w) array: floats, or TruthIntervals where w = 2."""
    if values.shape[-1] == 1:
        rows = values[..., 0].tolist()
    else:
        rows = [[TruthInterval(lo, hi) for lo, hi in row] for row in values.tolist()]
    return dict(zip(keys, rows))


class _Errors(list):
    """``validate_problem``'s messages; ``arrays`` maps each valid row field to its array."""


def validate_problem(problem: LcmProblem, mode: str) -> list[str]:
    """Structural and per-mode value checks; returns the errors.  Each row field
    is checked in bulk as one array (a parsed problem's held one, or built once),
    walked only to name a fault.  An entry must be a real number other than a bool
    that ``truth_value`` accepts (0 or 1 in crisp mode), or in interval mode a TruthInterval."""
    if mode not in MODES:
        return [f"unknown mode {mode!r}; expected one of {MODES}"]
    errors = _Errors()
    errors.arrays = {}
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
    src, dst, alpha, alpha_back = problem._columns()
    for s, d, a, b in zip(src, dst, alpha, alpha_back):
        forward[d] = forward.get(d, 0) + a
        backward[s] = backward.get(s, 0) + b
    sums = chain(forward.values(), backward.values())
    if not (forward.keys() == blocks - {problem.entry} and backward.keys() == blocks - {problem.exit}
            and len(set(zip(src, dst))) == len(src) and not any(map(operator.eq, src, dst))
            and all(abs(v - 1.0) <= WEIGHT_SUM_TOL for v in sums)):
        seen_edges = set()  # some edge or block check fails: name each fault
        for s, d in zip(src, dst):
            if s not in blocks or d not in blocks:
                errors.append(f"dangling edge {s}->{d}")
            if (s, d) in seen_edges:
                errors.append(f"duplicate edge {s}->{d}")
            seen_edges.add((s, d))
            if s == d:
                errors.append(f"self loop on {s!r}")
            if d == problem.entry:
                errors.append(f"edge into entry block: {s}->{d}")
            if s == problem.exit:
                errors.append(f"edge out of exit block: {s}->{d}")
        for b in problem.blocks:
            if b != problem.entry and b not in forward:
                errors.append(f"block {b!r} has no predecessors and is not the entry")
            if b != problem.exit and b not in backward:
                errors.append(f"block {b!r} has no successors and is not the exit")
            if b in forward and abs(forward[b] - 1.0) > WEIGHT_SUM_TOL:
                errors.append(f"forward weights into {b!r} sum to {forward[b]!r}")
            if b in backward and abs(backward[b] - 1.0) > WEIGHT_SUM_TOL:
                errors.append(f"backward weights out of {b!r} sum to {backward[b]!r}")

    width, interval = len(problem.exprs), mode == "interval"
    kinds, pair = ("a number or an interval", TruthInterval) if interval else ("a number", None)
    for name in ("dee", "uee", "kill"):
        values = problem._held(name)
        if values is None or values.shape[1:] != (width, 1 + interval):
            values = _row_array(getattr(problem, name), problem.blocks, width, pair)
        if values is not None and (
                mode != "crisp" or np.count_nonzero(values) == np.count_nonzero(values == 1)):
            errors.arrays[name] = values
            continue  # nothing to name
        # Name each fault, or take what the bulk check does not: np.float64 or
        # Fraction entries, tuple rows and truth_value's slack, clamped.
        matrix, walked, count = getattr(problem, name), [], len(errors)
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
                    walked.append((v.lo, v.hi))
                    if not interval:
                        errors.append(f"{name}[{b!r}][{k}]: interval value in {mode} mode")
                elif isinstance(v, bool) or not isinstance(v, numbers.Real):
                    errors.append(f"{name}[{b!r}][{k}]: expected {kinds}, got {v!r}")
                elif mode == "crisp" and v not in (0.0, 1.0):
                    errors.append(f"{name}[{b!r}][{k}]: crisp mode needs 0or1, got {v!r}")
                else:
                    try:
                        walked.append((truth_value(v),) * (1 + interval))
                    except TruthValueError as exc:
                        errors.append(f"{name}[{b!r}][{k}]: {exc}")
        for b in matrix:
            if b not in blocks:
                errors.append(f"{name}: row for unknown block {b!r}")
        if len(errors) == count:
            errors.arrays[name] = np.array(walked).reshape(len(problem.blocks), width, 1 + interval)
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
        self.__dict__[name] = MappingProxyType(_rows(keys, self._arrays[name]))
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
        self.rows, self.crisp, self.cfg = errors.arrays, mode == "crisp", cfg
        family = LogicFamily.minmax() if self.crisp else cfg.family
        self.term, self._tnorm = family._term, family._tnorm_terms
        self.resort = mode == "interval" and family.kind == "frank"
        index = {b: i for i, b in enumerate(problem.blocks)}
        self.entry = index[problem.entry]
        src, dst, alpha, alpha_back = problem._columns()
        self.keys = list(zip(src, dst))
        self.src = np.array(list(map(index.__getitem__, src)), dtype=int)
        self.dst = np.array(list(map(index.__getitem__, dst)), dtype=int)
        self.forward = _Merges(self.dst, len(index), alpha)
        self.backward = _Merges(self.src, len(index), alpha_back)

    def conj(self, x: np.ndarray, y: np.ndarray, *, terms: bool = False) -> np.ndarray:
        """x & y; with ``terms``, x and y went through ``term`` already."""
        out = self._tnorm(x, y) if terms else self._tnorm(self.term(x), self.term(y))
        if self.resort:
            swap = out[..., 0] > out[..., 1]
            if swap.any():  # what np.sort does to the pairs, at less cost
                out[swap] = out[swap][:, ::-1]
        return out

    def neg(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - x[..., ::-1]  # a scalar's width-1 axis reverses to itself

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

    def meet(self, rows: np.ndarray, crisp: bool, cols=slice(None), fresh=False) -> np.ndarray:
        """Per merge, from its links' rows in columns ``cols``: the min (crisp)
        or the weighted sum clamped to [0,1]; 0 for a merge with no links.
        With ``fresh`` (rows first), ``rows`` holds old rows then new, read by
        ``gather``.  Every term is >= +0.0, so clamping with ``minimum`` gives
        the bits of summing from 0.0 and clipping."""
        values = rows[self.gather if fresh else self.src, cols]
        if crisp:
            out = np.minimum.reduce(values, axis=0, initial=1.0, where=self.link)
            return np.minimum(out, self.has_input, out=out)
        # Two slots take a merge with links from two other blocks, each a merge too, so
        # the array is never 1-D (which numpy sums pairwise): this adds slot by slot.
        out = np.add.reduce(self.weight * values, axis=0)
        return np.minimum(out, 1.0, out=out)


def _fixpoint(
    run: _Run,
    gen: np.ndarray,
    keep: np.ndarray,
    reads: np.ndarray | None,
    links: Sequence[_Links],
) -> tuple[np.ndarray, list[bool]]:
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
    Each column freezes at its first sweep whose change, the sum of
    |new - old| over its rows and merges (both ends of an interval), is
    below epsilon.

    ``links`` holds one table per analysis, for one of ``len(links)`` equal
    column ranges (stage 1: availability, then anticipatability).  A sweep
    meets each one's active columns, if any, and does the rest once for all.
    Returns the rows and, per analysis, whether it converged.
    """
    crisp = run.crisp
    start = 1.0 if crisp else 0.0
    rows = np.full(gen.shape, start)
    cur_merges = np.full((links[0].src.shape[1],) + gen.shape[1:], start)
    # The T-norm operands that stay the same over the solve: !gen and keep.
    not_gen, keep = run.term(run.neg(gen)), run.term(keep)

    def transfer(m: np.ndarray) -> np.ndarray:
        not_held = run.term(run.neg(run.conj(run.term(m), keep, terms=True)))
        if reads is not None:
            not_held = not_held[reads]
        return run.snap(run.neg(run.conj(not_gen, not_held, terms=True)))

    def meet(rows: np.ndarray, fresh: bool) -> np.ndarray:
        met = [table.meet(rows, crisp, slice(a, b), fresh)
               for table, a, b in zip(links, cut, cut[1:]) if a < b]
        return run.snap(met[0] if len(met) == 1 else np.concatenate(met, axis=1))

    # From top, every crisp sweep but the last clears at least one bit; a
    # crisp residual counts flipped bits: below one, nothing changed.
    limit = len(rows) + len(cur_merges) + 1 if crisp else run.cfg.max_iters
    epsilon = 1.0 if crisp else run.cfg.epsilon
    # Analysis i owns columns [bounds[i], bounds[i + 1]), and active[cut[i]:cut[i + 1]].
    active, bounds = np.arange(gen.shape[1]), gen.shape[1] // len(links) * np.arange(len(links) + 1)
    cut, cur_rows = bounds.tolist(), rows
    for _ in range(limit):
        if not active.size:
            break
        if reads is None:
            new_rows = transfer(cur_merges)
            new_merges = meet(np.concatenate((cur_rows, new_rows)), True)
        else:
            new_merges = meet(cur_rows, False)
            new_rows = transfer(new_merges)
        change = abs(new_rows - cur_rows).sum((0, 2)) + abs(new_merges - cur_merges).sum((0, 2))
        cur_rows, cur_merges = new_rows, new_merges
        done = change < epsilon
        if np.count_nonzero(done):
            rows[:, active[done]] = cur_rows[:, done]
            more = ~done
            active, cur_rows, cur_merges = active[more], cur_rows[:, more], cur_merges[:, more]
            not_gen, keep = not_gen[:, more], keep[:, more]
            cut = np.searchsorted(active, bounds).tolist()
    rows[:, active] = cur_rows
    return rows, [a == b for a, b in zip(cut, cut[1:])]


# -- the stages on arrays --------------------------------------------------------


def _earliest(run: _Run, av_out, an_in, an_out, kill) -> np.ndarray:
    """Earliest(i,j) = AnOut(j) & !AvOut(i) & (Kill(i) | !AnIn(i)), without
    the last factor when i is the entry."""
    first = run.conj(an_out[run.dst], run.neg(av_out[run.src]))
    blocked = run.disj(kill[run.src], run.neg(an_in[run.src]))
    return np.where((run.src == run.entry)[:, None, None], first, run.conj(first, blocked))


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
    ``SolverConfig(family)``, or ``SolverConfig()`` with neither; a ``family``
    given beside a ``cfg`` must equal ``cfg.family``.  The problem is validated,
    and its rows stacked, once per call; nothing is cached on it, so edits
    to its rows and edges show in the next call."""
    if cfg is None:
        cfg = SolverConfig() if family is None else SolverConfig(family)
    elif family is not None and family != cfg.family:
        raise ValueError(f"family {family} differs from cfg.family {cfg.family}")
    run = _Run(problem, mode, cfg)
    dee, uee, kill = operator.itemgetter("dee", "uee", "kill")(run.rows)
    # AvOut(b) = DEE(b) | (AvIn(b) & !Kill(b)) in the first n columns, then AnOut
    # with UEE for DEE and AnIn over successors; AvIn is not reported.
    n, an_links = len(problem.exprs), _Links(run.dst, run.backward)
    rows, (av_ok, an_ok) = _fixpoint(run, np.concatenate((dee, uee), 1),
                                     np.tile(run.neg(kill), (1, 2, 1)), None,
                                     [_Links(run.src, run.forward), an_links])
    av_out, an_out, an_in = rows[:, :n], rows[:, n:], an_links.meet(rows[:, n:], run.crisp)
    ear = _earliest(run, av_out, an_in, an_out, kill)
    # LaterOut(i,j) = Earliest(i,j) | (LaterIn(i) & !UEE(i)); LaterIn merges LaterOut.
    later_links = _Links(np.arange(len(run.keys)), run.forward)
    later_out, (later_ok,) = _fixpoint(run, ear, run.neg(uee), run.src, [later_links])
    later_in = later_links.meet(later_out, run.crisp)
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
    arrays = {"edges": _edge_columns(data["edges"])}  # held, or None to walk the field
    edges = arrays["edges"] or _jsonio.load_items(
        data["edges"], "edges",
        lambda raw: _jsonio.load_edge(raw, LcmEdge, ("alpha", "alpha_back")))
    exprs = _jsonio.load_strings(data["exprs"], "exprs")

    def matrix(name: str) -> BlockMatrix | None:
        arrays[name] = _row_array(data[name], blocks, len(exprs), list if interval else None)
        if arrays[name] is not None:
            return None
        if not isinstance(data[name], dict):
            raise FileFormatError(f"{name}: expected an object of block rows")
        rows = {}
        for b, row in data[name].items():
            try:  # the row's context is formatted only when it fails
                rows[str(b)] = [_jsonio.load_value(v, f"[{k}]", interval=interval)
                                for k, v in enumerate(_jsonio.load_list(row, ""))]
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
    problem._arrays = {name: held for name, held in arrays.items() if held is not None}
    problem._array_blocks = list(blocks)
    for name in problem._arrays:  # built on first read, by LcmProblem.__getattr__
        delattr(problem, name)
    return problem, settings


def _edge_columns(raw: Any) -> tuple | None:
    """The edges as (sources, targets, alphas, alpha_backs), if each has just the
    four keys, string ends and weights in [0, 1] that are floats or ints (read as
    floats, as ``load_number`` reads them) but not bools; else None."""
    if (type(raw) is not list or not _jsonio.all_of(dict, raw)
            or list(map(len, raw)).count(4) != len(raw)):
        return None
    try:
        ends_weights = map(operator.itemgetter("from", "to", "alpha", "alpha_back"), raw)
        src, dst, alpha, alpha_back = list(zip(*ends_weights)) or [()] * 4
    except KeyError:
        return None
    weights = alpha + alpha_back
    kinds = list(map(type, weights))
    floats = kinds.count(float)  # fast, unlike counting a type that no weight has
    ok = (_jsonio.all_of(str, src + dst) and floats + (floats < len(weights) and kinds.count(int))
          == len(weights) and all(0.0 <= w <= 1.0 for w in weights))  # a NaN fails both
    return (src, dst, tuple(map(float, alpha)), tuple(map(float, alpha_back))) if ok else None


def _row_array(raw: Any, blocks: list, width: int, pair: type | None) -> np.ndarray | None:
    """A row matrix, a file's object or a library dict, as a read-only (blocks, exprs,
    w) array in ``blocks`` order, if it has a row for each block and no other, each a
    list of ``width`` floats or non-bool ints in [0, 1] (w = 1); with ``pair``, the
    pair type (``list`` in a file, ``TruthInterval`` in the library), such numbers v,
    as (v, v), or ordered pairs of them (w = 2).  Else None: walk to name a fault."""
    if type(raw) is not dict or list(raw) != blocks and raw.keys() != set(blocks):
        return None
    rows = list(map(raw.__getitem__, blocks))
    if not _jsonio.all_of(list, rows) or list(map(len, rows)).count(width) != len(rows):
        return None
    flat = list(chain.from_iterable(rows))
    if pair is not None:  # a number v as (v, v)
        flat = [v if type(v) is list else (v, v) for v in flat] if pair is list else [
            (v.lo, v.hi) if type(v) is pair else (v, v) for v in flat]
        if list(map(len, flat)).count(2) != len(flat):
            return None
        flat = list(chain.from_iterable(flat))
    kinds = list(map(type, flat))
    floats = kinds.count(float)  # fast, unlike counting a type that no entry has
    if floats + (floats < len(flat) and kinds.count(int)) != len(flat):
        return None
    try:
        shape = (len(blocks), width, 1 + (pair is not None))
        values = np.array(flat, dtype=float).reshape(shape) + 0.0  # -0.0 to 0.0
    except OverflowError:  # an int too large for a float
        return None
    values.flags.writeable = False
    ok = values.min(initial=0.0) >= 0.0 and values.max(initial=1.0) <= 1.0 and (  # not NaN
        pair is None or (values[..., 0] <= values[..., 1]).all())
    return values if ok else None


def load_problem_file(path: str) -> tuple[LcmProblem, _jsonio.Settings]:
    return problem_from_json_dict(_jsonio.load_file(path))
