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

Crisp mode is the classical bit-vector algorithm: a row is one int, bit k
for expression k, and each fixed point is the greatest, found by a worklist
from top, whatever the logic family and stopping rule.  Fuzzy and interval
modes share one array engine: values are float arrays of shape (rows, exprs,
w), with w = 1 for scalars and w = 2 for (lo, hi) intervals, and each fixed
point is swept over all expressions at once, from zero, with the meet the
alpha-weighted average of the flow-graph framework, until a sweep moves an
expression by less than epsilon.  Every mode's ``LcmResult`` holds each
stage's matrices as such arrays (0.0 and 1.0 in crisp mode).

Boundary conventions (identical in all modes): the entry block's available
set is just its downward-exposed set, the exit block's anticipated set is
just its upward-exposed set, and nothing is "later" than the entry
(LaterIn(entry) = 0).
"""

from __future__ import annotations

import numbers
import operator
from itertools import accumulate, chain, repeat
from types import MappingProxyType
from typing import Any, Mapping, Sequence, Sized, Union

import numpy as np

from . import _jsonio
from ._jsonio import LCM_MODES as MODES, FileFormatError
from .truth import (WEIGHT_SUM_TOL, LogicFamily, SolverConfig, TruthInterval, TruthValueError,
                    _Frozen, _Record, truth_value)

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
        self._seal(src, dst, truth_value(alpha), truth_value(alpha_back))


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


def validate_problem(problem: LcmProblem, mode: str) -> list[str]:
    """Structural and per-mode value checks; returns the errors.  Each row field
    is checked in bulk as one array (a parsed problem's held one, or built once),
    walked only to name a fault.  An entry must be a real number other than a bool
    that ``truth_value`` accepts (0 or 1 in crisp mode), or in interval mode a TruthInterval."""
    return _validate(problem, mode)[0]


def _validate(problem: LcmProblem, mode: str) -> tuple[list[str], dict, tuple]:
    """``validate_problem``'s errors, each valid row field's array by name, and
    the edge columns checked."""
    if mode not in MODES:
        return [f"unknown mode {mode!r}; expected one of {MODES}"], {}, ()
    errors: list[str] = []
    arrays = {}
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
    columns = src, dst, alpha, alpha_back = problem._columns()
    for s, d, a, b in zip(*columns):
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
            arrays[name] = values
            continue  # nothing to name
        # Name each fault, or take what the bulk check does not: np.float64 or
        # Fraction entries, tuple rows and truth_value's slack, clamped.
        matrix, walked, count = getattr(problem, name), [], len(errors)
        if not isinstance(matrix, Mapping):
            errors.append(f"{name}: expected a dict of block rows, got {type(matrix).__name__}")
            continue
        for b in problem.blocks:
            row = matrix.get(b)
            if row is None:
                errors.append(f"{name}: missing row for block {b!r}")
                continue
            if not isinstance(row, Sized):
                errors.append(f"{name}[{b!r}]: expected {width} entries, got {row!r}")
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
                    errors.append(f"{name}[{b!r}][{k}]: crisp mode needs 0 or 1, got {v!r}")
                else:
                    try:
                        walked.append((truth_value(v),) * (1 + interval))
                    except (TruthValueError, OverflowError) as exc:  # or an int too large
                        errors.append(f"{name}[{b!r}][{k}]: {exc}")
        for b in matrix:
            if b not in blocks:
                errors.append(f"{name}: row for unknown block {b!r}")
        if len(errors) == count:
            arrays[name] = np.array(walked).reshape(len(problem.blocks), width, 1 + interval)
    return errors, arrays, columns


# -- the result -----------------------------------------------------------------


_MATRICES = ("av_out", "an_in", "an_out", "earliest", "later_in", "later_out", "insert", "delete")
_EDGE_MATRICES = ("earliest", "later_out", "insert")


class LcmResult(_Frozen):
    """Every matrix of a pipeline run, held as a read-only (rows, exprs, w)
    array keyed by matrix name, with the block ids and (src, dst) edge keys
    that index its rows.  ``av_out`` ... ``delete`` are read-only views of
    them (block or edge -> row, of ``TruthInterval``s in interval mode), each
    built on its first read; ``to_json_dict`` builds its lists from the
    arrays and builds no view.  Two results are equal when their reports are."""

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


def _checked(problem: LcmProblem, mode: str) -> tuple[dict, list, tuple, int]:
    """A valid problem's row arrays, edge keys, edge columns with block indices
    for the ends, and the entry's index; an invalid one raises a ValueError
    whose ``errors`` lists the violations."""
    errors, arrays, columns = _validate(problem, mode)
    if errors:
        exc = ValueError("invalid LCM problem: " + "; ".join(errors))
        exc.errors = errors
        raise exc
    index = {b: i for i, b in enumerate(problem.blocks)}
    src, dst = (list(map(index.__getitem__, ends)) for ends in columns[:2])
    return arrays, list(zip(*columns[:2])), (src, dst) + columns[2:], index[problem.entry]


class _Run:
    """One problem in fuzzy or interval mode, validated on construction: the
    mode's connectives, from ``cfg.family``, and fixed-point settings ``cfg``,
    the edges as block indices and as each direction's ``_Links``, and rows as
    (blocks, exprs, w) arrays in block order.  The complement reverses a
    (lo, hi) pair; the T-norm works endpoint-wise and gives the scalar's bits
    on every element.  Only Frank's pairs are re-sorted against rounding, as
    the interval reading of ``formula`` does: the other T-norms are monotone
    in floating point, so they keep ordered pairs ordered."""

    def __init__(self, problem: LcmProblem, mode: str, cfg: SolverConfig):
        self.rows, self.keys, (src, dst, alpha, alpha_back), self.entry = _checked(problem, mode)
        self.cfg, self.term, self._tnorm = cfg, cfg.family._term, cfg.family._tnorm_terms
        self.resort = mode == "interval" and cfg.family.kind == "frank"
        self.src, self.dst = np.array(src, dtype=int), np.array(dst, dtype=int)
        self.forward = _Links(self.src, self.dst, alpha, len(problem.blocks))  # predecessors
        self.backward = _Links(self.dst, self.src, alpha_back, len(problem.blocks))  # successors

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
        if self.cfg.quantize_bits is None:
            return values
        scale = float(2**self.cfg.quantize_bits)
        return np.minimum(1.0, np.round(values * scale) / scale)


# -- the fixed-point engine --------------------------------------------------------


class _Links:
    """The inputs of each of ``n`` merges: link i carries row ``src[i]`` into
    merge ``dst[i]`` with weight ``weight[i]``, in ``problem.edges`` order."""

    def __init__(self, src: np.ndarray, dst: np.ndarray, weight: Sequence[float], n: int):
        self.src, self.dst, self.weight, self.n = src, dst, np.array(weight, dtype=float), n

    def plan(self, a: int, b: int, n_cols: int, width: int, fresh: bool = False) -> tuple:
        """The terms that meet columns [a, b) of (rows, n_cols, width) arrays, link
        by link, as flat indices: ``_meet`` reads each from ``take``, scales it by
        ``weight`` and adds it into ``put``.  With ``fresh`` (rows first), the rows
        are old rows then new, and a link reads the new row when its block comes
        before the merge's: a rows-first sweep has computed it."""
        span, cols = n_cols * width, np.arange(a * width, b * width)
        src = self.src + self.n * (self.src < self.dst) if fresh else self.src
        return ((src[:, None] * span + cols).ravel(), np.repeat(self.weight, len(cols)),
                (self.dst[:, None] * span + cols).ravel())


def _meet(rows: np.ndarray, plan: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Per merge of ``n``, from ``rows`` by ``plan``: the weighted sum of its
    links' values clamped to [0,1]; 0 for a merge with no links.  ``bincount``
    adds a merge's terms from 0.0 in link order, and every term is >= +0.0, so
    the sum has the bits of adding them one by one, and clamping with
    ``minimum`` those of clipping."""
    take, weight, put = plan
    out = np.bincount(put, rows.take(take) * weight, n * rows.shape[1] * rows.shape[2])
    return np.minimum(out.reshape((n,) + rows.shape[1:]), 1.0)  # float even where put is empty


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

    from zero by Gauss-Seidel sweeps in a fixed node order.  ``held`` is
    taken per merge and then gathered, so each merge's T-norm is evaluated
    once however many rows read it.  With ``reads`` None (stage 1), row r
    reads merge r and the order is row b, merge b for each block b: a sweep's
    rows read the last sweep's merges, and a merge reads this sweep's rows
    only from blocks before it.  Otherwise (Later) every merge comes first, reading the last
    sweep's rows, and every row then reads this sweep's merges.
    Each column freezes at its first sweep whose change, the sum of
    |new - old| over its rows and merges (both ends of an interval), is
    below epsilon.

    ``links`` holds one table per analysis, for one of ``len(links)`` equal
    column ranges (stage 1: availability, then anticipatability).  A sweep
    meets the active columns of all of them by one plan, built again when
    columns freeze.  Returns the rows and, per analysis, whether it converged.
    """
    n, width = links[0].n, gen.shape[2]
    rows = np.zeros(gen.shape)
    cur_merges = np.zeros((n,) + gen.shape[1:])
    # The T-norm operands that stay the same over the solve: !gen and keep.
    not_gen, keep = run.term(run.neg(gen)), run.term(keep)

    def transfer(m: np.ndarray) -> np.ndarray:
        not_held = run.term(run.neg(run.conj(run.term(m), keep, terms=True)))
        if reads is not None:
            not_held = not_held[reads]
        return run.snap(run.neg(run.conj(not_gen, not_held, terms=True)))

    def build_plan() -> list[np.ndarray]:
        parts = [table.plan(a, b, len(active), width, reads is None)
                 for table, a, b in zip(links, cut, cut[1:]) if a < b]
        return [np.concatenate(column) for column in zip(*parts)]

    # Analysis i owns columns [bounds[i], bounds[i + 1]), and active[cut[i]:cut[i + 1]].
    active, bounds = np.arange(gen.shape[1]), gen.shape[1] // len(links) * np.arange(len(links) + 1)
    cut, cur_rows = bounds.tolist(), rows
    plan = build_plan()
    for _ in range(run.cfg.max_iters):
        if not active.size:
            break
        if reads is None:
            new_rows = transfer(cur_merges)
            new_merges = run.snap(_meet(np.concatenate((cur_rows, new_rows)), plan, n))
        else:
            new_merges = run.snap(_meet(cur_rows, plan, n))
            new_rows = transfer(new_merges)
        change = abs(new_rows - cur_rows).sum((0, 2)) + abs(new_merges - cur_merges).sum((0, 2))
        cur_rows, cur_merges = new_rows, new_merges
        done = change < run.cfg.epsilon
        if np.count_nonzero(done):
            rows[:, active[done]] = cur_rows[:, done]
            more = ~done
            active, cur_rows, cur_merges = active[more], cur_rows[:, more], cur_merges[:, more]
            not_gen, keep = not_gen[:, more], keep[:, more]
            cut = np.searchsorted(active, bounds).tolist()
            plan = build_plan()
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


# -- crisp mode on bit-vectors -----------------------------------------------------


def _greatest(gen: list[int], keep: list[int], src: list[int], dst: list[int], full: int,
              order: range) -> list[int]:
    """The greatest solution of merge[m] = AND over links l into m of
    gen[l] | (merge[src[l]] & keep[src[l]]), on ints below ``full``, where a
    merge without links is 0: a worklist from top, visiting ``order`` first.
    The lattice is finite, so every fair order reaches the same maximal fixed
    point (Kildall 1973; Kam & Ullman 1977); ``order`` sets only the cost."""
    into, readers = [[] for _ in keep], [[] for _ in keep]
    for g, s, d in zip(gen, src, dst):
        into[d].append((g, s))
        readers[s].append(d)
    merge = [full if links else 0 for links in into]
    work, queued = [m for m in reversed(order) if into[m]], list(map(bool, into))
    while work:
        m = work.pop()
        queued[m], value = False, full
        for g, s in into[m]:
            value &= g | merge[s] & keep[s]
        if value != merge[m]:
            merge[m] = value
            for r in readers[m]:
                if not queued[r]:
                    queued[r] = True
                    work.append(r)
    return merge


def _crisp_pipeline(problem: LcmProblem) -> LcmResult:
    """The four stages on bit-vectors: row b is one int, bit k for expression k."""
    rows, keys, (src, dst, *_), entry = _checked(problem, "crisp")
    n, blocks = len(problem.exprs), len(problem.blocks)
    full, size, forward = (1 << n) - 1, (n + 7) // 8, range(blocks)  # edges mostly run forward
    bits = np.concatenate([rows[name][..., 0] for name in ("dee", "uee", "kill")]) != 0
    packed = np.packbits(bits, 1, bitorder="little").tobytes()
    ints = [int.from_bytes(packed[i * size:i * size + size], "little") for i in range(3 * blocks)]
    dee, uee, kill = ints[:blocks], ints[blocks:2 * blocks], ints[2 * blocks:]
    keep, not_uee = [full ^ k for k in kill], [full ^ u for u in uee]
    av_in = _greatest([dee[i] for i in src], keep, src, dst, full, forward)
    av_out = [d | m & k for d, m, k in zip(dee, av_in, keep)]
    an_in = _greatest([uee[j] for j in dst], keep, dst, src, full, forward[::-1])  # successors
    an_out = [u | m & k for u, m, k in zip(uee, an_in, keep)]
    ear = [an_out[j] & (full ^ av_out[i]) & (full if i == entry else kill[i] | full ^ an_in[i])
           for i, j in zip(src, dst)]
    later_in = _greatest(ear, not_uee, src, dst, full, forward)
    later_out = [e | later_in[i] & not_uee[i] for e, i in zip(ear, src)]
    insert = [o & (full ^ later_in[j]) for o, j in zip(later_out, dst)]
    delete = [0 if b == entry else u & (full ^ li) for b, u, li in zip(forward, uee, later_in)]
    matrices = (av_out, an_in, an_out, ear, later_in, later_out, insert, delete)
    packed = b"".join(map(int.to_bytes, chain.from_iterable(matrices), repeat(size), repeat("little")))
    ends = [0, *accumulate(map(len, matrices))]
    values = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(ends[-1], size), 1, n,
                           bitorder="little").astype(float)[..., None]
    arrays = [values[a:b] for a, b in zip(ends, ends[1:])]
    return LcmResult("crisp", list(problem.exprs), True, list(problem.blocks), keys,
                     dict(zip(_MATRICES, arrays)))


def lcm_pipeline(
    problem: LcmProblem,
    mode: str,
    family: LogicFamily | None = None,
    cfg: SolverConfig | None = None,
) -> LcmResult:
    """Run the four stages in order and collect every matrix.

    The logic family and the stopping rule come from ``cfg``, by default
    ``SolverConfig(family)``, or ``SolverConfig()`` with neither; a ``family``
    given beside a ``cfg`` must equal ``cfg.family``; crisp mode uses neither.
    The problem is validated, and its rows stacked, once per call; nothing is
    cached on it, so edits to its rows and edges show in the next call."""
    if cfg is None:
        cfg = SolverConfig() if family is None else SolverConfig(family)
    elif family is not None and family != cfg.family:
        raise ValueError(f"family {family} differs from cfg.family {cfg.family}")
    if mode == "crisp":
        return _crisp_pipeline(problem)
    run = _Run(problem, mode, cfg)
    dee, uee, kill = operator.itemgetter("dee", "uee", "kill")(run.rows)
    # AvOut(b) = DEE(b) | (AvIn(b) & !Kill(b)) in the first n columns, then AnOut
    # with UEE for DEE and AnIn over successors; AvIn is not reported.
    n, blocks, width = len(problem.exprs), len(problem.blocks), dee.shape[2]
    rows, (av_ok, an_ok) = _fixpoint(run, np.concatenate((dee, uee), 1),
                                     np.tile(run.neg(kill), (1, 2, 1)), None,
                                     [run.forward, run.backward])
    av_out, an_out = rows[:, :n], rows[:, n:]
    an_in = _meet(an_out, run.backward.plan(0, n, n, width), blocks)
    ear = _earliest(run, av_out, an_in, an_out, kill)
    # LaterOut(i,j) = Earliest(i,j) | (LaterIn(i) & !UEE(i)); LaterIn merges LaterOut.
    later_links = _Links(np.arange(len(run.keys)), run.dst, run.forward.weight, blocks)
    later_out, (later_ok,) = _fixpoint(run, ear, run.neg(uee), run.src, [later_links])
    later_in = _meet(later_out, later_links.plan(0, n, n, width), blocks)
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
