"""The array engine of ``lcm``'s fuzzy and interval modes (see ``lcm``).  ``lcm``
imports it, and with it numpy, only for a fuzzy or interval run: parsing and
validating build no array."""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .lcm import _MATRICES, LcmProblem, LcmResult, _checked
from .truth import SolverConfig, _snap


def pipeline(problem: LcmProblem, mode: str, cfg: SolverConfig) -> LcmResult:
    """``lcm_pipeline`` in fuzzy or interval mode: the four stages on (exprs,
    rows, w) arrays, reported as (rows, exprs, w) views of them."""
    run = _Run(problem, mode, cfg)
    dee, uee, kill = operator.itemgetter("dee", "uee", "kill")(run.rows)
    (n, blocks, width), src, dst, conj, neg = dee.shape, run.src, run.dst, run.conj, run.neg
    # AvOut(b) = DEE(b) | (AvIn(b) & !Kill(b)) in the first n columns, then AnOut
    # with UEE for DEE and AnIn over successors; AvIn is not reported.  Stage 1
    # meets (old rows, new rows): a link reads the new row, r + blocks, when its
    # block comes before the merge's, as a rows-first sweep has computed it.
    stage1 = _Links([src + blocks * (src < dst), dst + blocks * (dst < src)], [dst, src],
                    run.weights, blocks, 2 * blocks, width)
    rows, ok = _fixpoint(run, np.concatenate((dee, uee)), np.tile(neg(kill), (2, 1, 1)), None,
                         stage1)
    av_out, an_out = rows[:n], rows[n:]
    # Stage 1's anticipatability terms read row r or r + blocks, both AnOut(r) here.
    an_in = _meet(np.concatenate((an_out, an_out), 1), stage1.plan(np.ones(n, dtype=int)), blocks)
    # Earliest(i,j) = AnOut(j) & !AvOut(i) & (Kill(i) | !AnIn(i)), without the
    # last factor when i is the entry.  A gathered row's complement reverses its
    # pairs in the gather, as an op on a reversed view runs several times slower.
    first = conj(an_out[:, dst], 1.0 - av_out[:, src, ::-1])
    ear = np.where((src == run.entry)[:, None], first,
                   conj(first, run.disj(kill[:, src], 1.0 - an_in[:, src, ::-1])))
    # LaterOut(i,j) = Earliest(i,j) | (LaterIn(i) & !UEE(i)); LaterIn merges LaterOut.
    later = _Links([np.arange(len(run.keys))], [dst], run.weights[:1], blocks, len(run.keys), width)
    later_out, later_ok = _fixpoint(run, ear, neg(uee), src, later)
    later_in = _meet(later_out, later.plan(np.zeros(n, dtype=int)), blocks)
    # Insert(i,j) = LaterOut(i,j) & !LaterIn(j); Delete(k) = UEE(k) & !LaterIn(k),
    # and 0 for the entry.
    not_later = neg(later_in)
    insert, delete = conj(later_out, not_later[:, dst]), conj(uee, not_later)
    delete[:, run.entry] = 0.0
    arrays = (av_out, an_in, an_out, ear, later_in, later_out, insert, delete)
    for values in arrays:  # and so the views reported
        values.flags.writeable = False
    return LcmResult(mode, list(problem.exprs), ok and later_ok, list(problem.blocks), run.keys,
                     {name: a.transpose(1, 0, 2) for name, a in zip(_MATRICES, arrays)})


class _Run:
    """One problem in fuzzy or interval mode, validated on construction: the
    mode's connectives, from ``cfg.family``, and fixed-point settings ``cfg``,
    the edges as block indices and (forward, backward) weights, and rows as
    expression-major (exprs, blocks, w) arrays, built here from what
    ``lcm._validate`` checked: 0/1 bytes or lists of numbers, a number v as
    (v, v) where w = 2, or (lows, highs) lists, with -0.0 as 0.0.  The
    complement reverses a (lo, hi) pair; the T-norm is the family's one
    formula, ``LogicFamily._tnorm``, run on numpy end by end, and its pairs are
    re-sorted only for a family that ``_reorders``, as in ``formula._Ops``."""

    def __init__(self, problem: LcmProblem, mode: str, cfg: SolverConfig):
        rows, self.keys, (src, dst, *self.weights), self.entry = _checked(problem, mode)
        blocks, n = len(problem.blocks), len(problem.exprs)
        zero = np.zeros((n, blocks, 1 + (mode == "interval")))  # + zero: -0.0 as 0.0, v as (v, v)
        flat = {name: np.array(memoryview(v) if type(v) is bytes else v, float)
                for name, v in rows.items()}  # (lows, highs) as (2, entries)
        self.rows = {name: v.T.reshape(blocks, n, v.ndim).transpose(1, 0, 2) + zero
                     for name, v in flat.items()}
        self.cfg, self._tnorm = cfg, cfg.family._tnorm
        self.resort = mode == "interval" and cfg.family._reorders
        self.src, self.dst = np.array(src, dtype=int), np.array(dst, dtype=int)

    def conj(self, x: np.ndarray, y: np.ndarray, negate: bool = False) -> np.ndarray:
        """T(x, y), or with ``negate`` 1 - T(x, y)."""
        out = 1.0 - self._tnorm(x, y, np) if negate else self._tnorm(x, y, np)
        if self.resort:
            swap = out[..., 0] > out[..., 1]
            if swap.any():  # what np.sort does to the pairs, at less cost
                out[swap] = out[swap][:, ::-1]
        return out

    def neg(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - x[..., ::-1]  # a scalar's width-1 axis reverses to itself

    def disj(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """neg(conj(neg(x), neg(y))) with no op on a reversed view, which
        numpy runs several times slower: around an elementwise T-norm the
        complements' reversals cancel."""
        return self.conj(1.0 - x, 1.0 - y, negate=True)


# -- the fixed-point engine --------------------------------------------------------


class _Links:
    """Per analysis a, the inputs of each of ``n`` merges: in each column of a,
    link i carries row ``src[a][i]`` of (columns, ``rows``, w) arrays into merge
    ``dst[a][i]`` of (columns, n, w) ones with weight ``weight[a][i]``, in
    ``problem.edges`` order.  The flat indices of one column's terms are built
    once per analysis; ``plan`` moves them to each column's place."""

    def __init__(self, src: list, dst: list, weight: list, n: int, rows: int, width: int):
        self.ends = np.array([src, dst])[..., None] * width + np.arange(width)  # (2, a, links, w)
        self.weight = np.repeat(np.array(weight, dtype=float)[..., None], width, axis=2)
        self.n, self.spans = n, np.array([rows, n]).reshape(2, 1, 1, 1) * width

    def plan(self, analysis: np.ndarray) -> tuple:
        """The terms that meet columns of ``analysis`` (each column's), as
        ``_meet`` takes them: each is read from ``take``, scaled by ``weight``
        and added into ``put``."""
        take, put = self.ends[:, analysis] + np.arange(len(analysis))[:, None, None] * self.spans
        return take.ravel(), self.weight[analysis].ravel(), put.ravel()


def _meet(rows: np.ndarray, plan: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Per merge of ``n``, from ``rows`` by ``plan``: the weighted sum of its
    links' values clamped to [0,1]; 0 for a merge with no links.  ``bincount``
    adds a merge's terms from 0.0 in link order, and every term is >= +0.0, so
    the sum has the bits of adding them one by one, and clamping with
    ``minimum`` those of clipping."""
    take, weight, put = plan
    out = np.bincount(put, rows.take(take) * weight, len(rows) * n * rows.shape[2])
    return np.minimum(out.reshape((len(rows), n) + rows.shape[2:]), 1.0)  # float even with no terms


def _fixpoint(run: _Run, gen: np.ndarray, keep: np.ndarray, reads: np.ndarray | None,
              links: _Links) -> tuple[np.ndarray, bool]:
    """Solve, for every expression column at once,

        row[r]   = gen[r] | held[reads[r]],  held[m] = merge[m] & keep[m]
        merge[m] = meet of the rows linked into m

    from zero by Gauss-Seidel sweeps in a fixed node order, on (columns, rows,
    w) arrays.  ``held`` is taken per merge and then gathered, so each merge's
    T-norm is evaluated once however many rows read it.  With ``reads`` None
    (stage 1), row r reads merge r and the order is row b, merge b for each
    block b: a sweep's rows read the last sweep's merges, and a merge reads
    this sweep's rows only from blocks before it.  Otherwise (Later) every
    merge comes first, reading the last sweep's rows, and every row then reads
    this sweep's merges.

    The columns fall into equal ranges, one per analysis of ``links`` (stage
    1: availability, then anticipatability).  Each column freezes at its first
    sweep whose change, the sum of |new - old| over its rows and merges (both
    ends of an interval), is below epsilon: its rows are copied out then.
    Columns depend on nothing but themselves, so a frozen column is swept on,
    unread, until half the columns swept have frozen; then those are dropped
    and the terms planned again.  Returns the rows and whether every column
    converged.
    """
    n, bits, analyses = links.n, run.cfg.quantize_bits, len(links.weight)
    out = rows = np.zeros(gen.shape)  # rows is rebound to new rows before out is written
    merges, not_gen = np.zeros((len(gen), n) + gen.shape[2:]), 1.0 - gen
    # Of each column swept: its column in out, its analysis, and the bar its
    # change must be below to freeze it, epsilon or, once frozen, 0.0.
    column, analysis = np.arange(len(gen)), np.repeat(np.arange(analyses), len(gen) // analyses)
    bar = np.full(len(gen), run.cfg.epsilon)

    def transfer(m: np.ndarray) -> np.ndarray:
        held = run.conj(m, keep)  # then gen | held as 1 - (!gen & !held), as disj does
        new = run.conj(not_gen, 1.0 - (held if reads is None else held[:, reads]), negate=True)
        return new if bits is None else _snap(new, bits, np)

    def meet(r: np.ndarray) -> np.ndarray:
        m = _meet(r, terms, n)
        return m if bits is None else _snap(m, bits, np)

    terms = links.plan(analysis)
    for _ in range(run.cfg.max_iters):
        if not column.size:
            break
        if reads is None:
            new_rows = transfer(merges)
            new_merges = meet(np.concatenate((rows, new_rows), 1))
        else:
            new_merges = meet(rows)
            new_rows = transfer(new_merges)
        change = (np.add.reduce(abs(new_rows - rows), (1, 2))
                  + np.add.reduce(abs(new_merges - merges), (1, 2)))
        rows, merges = new_rows, new_merges
        done = change < bar
        if np.count_nonzero(done):
            out[column[done]] = rows[done]
            bar[done] = 0.0
            if 2 * np.count_nonzero(bar) <= bar.size:
                live = bar > 0.0
                column, analysis, bar = column[live], analysis[live], bar[live]
                rows, merges, not_gen, keep = rows[live], merges[live], not_gen[live], keep[live]
                terms = links.plan(analysis)
    live = bar > 0.0
    out[column[live]] = rows[live]
    return out, not live.any()
