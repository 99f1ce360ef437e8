"""The array engine of ``lcm``'s fuzzy and interval modes (see ``lcm``).  ``lcm``
imports it, and with it numpy, only for a fuzzy or interval run: parsing and
validating build no array."""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .lcm import _MATRICES, LcmProblem, LcmResult, _checked
from .truth import SolverConfig


def pipeline(problem: LcmProblem, mode: str, cfg: SolverConfig) -> LcmResult:
    """``lcm_pipeline`` in fuzzy or interval mode."""
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
    for values in arrays:
        values.flags.writeable = False
    return LcmResult(mode, list(problem.exprs), av_ok and an_ok and later_ok, list(problem.blocks),
                     run.keys, dict(zip(_MATRICES, arrays)))


class _Run:
    """One problem in fuzzy or interval mode, validated on construction: the
    mode's connectives, from ``cfg.family``, and fixed-point settings ``cfg``,
    the edges as block indices and as each direction's ``_Links``, and rows as
    (blocks, exprs, w) arrays in block order, built here from what ``lcm._validate``
    checked: 0/1 bytes or lists of numbers, a number v as (v, v) where w = 2, or
    (lows, highs) lists, with -0.0 as 0.0.  The complement reverses a
    (lo, hi) pair; the T-norm is the family's one formula, ``LogicFamily._tnorm``,
    run on numpy end by end.  Only Frank's pairs are re-sorted against rounding, as
    the interval reading of ``formula`` does: the other T-norms are monotone
    in floating point, so they keep ordered pairs ordered."""

    def __init__(self, problem: LcmProblem, mode: str, cfg: SolverConfig):
        rows, self.keys, (src, dst, alpha, alpha_back), self.entry = _checked(problem, mode)
        shape = (len(problem.blocks), len(problem.exprs), 1 + (mode == "interval"))
        zero = np.zeros(shape)  # + zero: -0.0 as 0.0, and a number v as (v, v) where w = 2
        flat = {name: np.array(memoryview(v) if type(v) is bytes else v, float)
                for name, v in rows.items()}  # (lows, highs) as (2, entries)
        self.rows = {name: v.T.reshape(shape[:2] + (v.ndim,)) + zero for name, v in flat.items()}
        self.cfg, self._tnorm = cfg, cfg.family._tnorm
        self.resort = mode == "interval" and cfg.family.kind == "frank"
        self.src, self.dst = np.array(src, dtype=int), np.array(dst, dtype=int)
        self.forward = _Links(self.src, self.dst, alpha, len(problem.blocks))  # predecessors
        self.backward = _Links(self.dst, self.src, alpha_back, len(problem.blocks))  # successors

    def conj(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = self._tnorm(x, y, np)
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
    not_gen = run.neg(gen)

    def transfer(m: np.ndarray) -> np.ndarray:
        not_held = run.neg(run.conj(m, keep))
        return run.snap(run.neg(run.conj(not_gen, not_held if reads is None else not_held[reads])))

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
