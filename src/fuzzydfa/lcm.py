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

Parsing and validating check rows in plain Python, in every mode, and load no
numpy.  Crisp mode is the classical bit-vector algorithm, and loads none
either: a row is one int, byte k 0 or 1 for expression k, and each fixed point
is the greatest, found by a worklist from top, whatever the logic family and
stopping rule.  Fuzzy and interval runs share one array engine, ``_soft``, the
one user of numpy: values are float arrays of shape (exprs, rows, w), reported
as (rows, exprs, w) views, with w = 1 for scalars and w = 2 for (lo, hi)
intervals, and each fixed point is swept over all expressions at once, from
zero, with the meet the alpha-weighted average of the flow-graph framework,
each expression until a sweep moves it by less than epsilon.

Boundary conventions (identical in all modes): the entry block's available
set is just its downward-exposed set, the exit block's anticipated set is
just its upward-exposed set, and nothing is "later" than the entry
(LaterIn(entry) = 0).
"""

from __future__ import annotations

import numbers
import operator
from itertools import chain, islice, repeat
from types import MappingProxyType
from typing import Any, Mapping, Sequence, Sized, Union

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
    """A parsed problem may hold ``dee``, ``uee``, ``kill`` and ``edges`` unbuilt,
    each built on its first read: a row field as ``_bulk`` checked it, row after
    row, and the edges as columns.  Runs use what is held until the field is read
    or assigned, and the field after that, so edits show.  Held or not, a run's
    rows are checked by ``validate_problem``."""

    _fields = ("blocks", "edges", "exprs", "dee", "uee", "kill", "entry", "exit")
    _parsed: Mapping[str, Any] = MappingProxyType({})  # what a parsed problem holds, by field

    def __init__(self, blocks: list[str], edges: list[LcmEdge], exprs: list[str],
                 dee: BlockMatrix, uee: BlockMatrix, kill: BlockMatrix, entry: str,
                 exit: str) -> None:
        self.blocks, self.edges, self.exprs = blocks, edges, exprs
        self.dee, self.uee, self.kill = dee, uee, kill
        self.entry, self.exit = entry, exit

    def __getattr__(self, name: str) -> Any:  # only for an attribute not set
        if name not in self._parsed:
            raise AttributeError(name)
        held, blocks = self._parsed[name], self._parsed_blocks
        if name == "edges":
            value = [LcmEdge(*edge) for edge in zip(*held)]
        else:  # rows as wide as held, whatever ``exprs`` holds now
            entries = (list(map(TruthInterval, *held)) if type(held) is tuple
                       else [v + 0.0 for v in held])  # bytes and ints as floats, -0.0 as 0.0
            n = len(entries) // max(len(blocks), 1)
            value = {b: entries[i * n:i * n + n] for i, b in enumerate(blocks)}
        setattr(self, name, value)
        return value

    def _held(self, name: str) -> Any:
        """What is held for field ``name`` (``_bulk``'s rows, or columns for
        edges), while that field is unbuilt and the blocks are the parsed ones;
        else None."""
        held = name in self._parsed and name not in vars(self) and self.blocks == self._parsed_blocks
        return self._parsed[name] if held else None

    def _columns(self) -> tuple:
        """The edges as (sources, targets, alphas, alpha_backs)."""
        return self._held("edges") or tuple(
            zip(*[(e.src, e.dst, e.alpha, e.alpha_back) for e in self.edges])) or ((),) * 4


def validate_problem(problem: LcmProblem, mode: str) -> list[str]:
    """Structural and per-mode value checks; returns the errors.  Each row field
    is taken as a parsed problem holds it, or checked in one pass by ``_bulk``,
    and walked only to name a fault; no array is built.  An entry must be a real
    number other than a bool that ``truth_value`` accepts (0 or 1 in crisp mode),
    or in interval mode a TruthInterval."""
    return _validate(problem, mode)[0]


def _validate(problem: LcmProblem, mode: str) -> tuple[list[str], dict, tuple]:
    """``validate_problem``'s errors, each valid row field's rows by name, and the
    edge columns checked.  Rows are as ``_bulk`` gives them, bytes in crisp mode;
    a field it does not take is walked into the same form, its entries clamped."""
    if mode not in MODES:
        return [f"unknown mode {mode!r}; expected one of {MODES}"], {}, ()
    errors: list[str] = []
    rows = {}
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
    kinds = "a number or an interval" if interval else "a number"
    cells = len(problem.blocks) * width
    for name in ("dee", "uee", "kill"):
        values = problem._held(name)  # numbers read as (v, v) in interval mode
        if not ((type(values) is bytes or type(values) is list and mode != "crisp")
                and len(values) == cells or type(values) is tuple and interval
                and len(values[0]) == cells):
            values = _bulk(_entries(getattr(problem, name), problem.blocks, width), mode)
        if values is not None:
            rows[name] = values
            continue  # nothing to name
        # Name each fault, or take what the bulk check does not: np.float64 or
        # Fraction entries, tuple rows, truth_value's slack, clamped, and a crisp -0.0.
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
                    walked += v.lo, v.hi
                    if not interval:
                        errors.append(f"{name}[{b!r}][{k}]: interval value in {mode} mode")
                elif isinstance(v, bool) or not isinstance(v, numbers.Real):
                    errors.append(f"{name}[{b!r}][{k}]: expected {kinds}, got {v!r}")
                elif mode == "crisp" and v not in (0.0, 1.0):
                    errors.append(f"{name}[{b!r}][{k}]: crisp mode needs 0 or 1, got {v!r}")
                else:
                    try:
                        walked += (truth_value(v),) * (1 + interval)
                    except (TruthValueError, OverflowError) as exc:  # or an int too large
                        errors.append(f"{name}[{b!r}][{k}]: {exc}")
        for b in matrix:
            if b not in blocks:
                errors.append(f"{name}: row for unknown block {b!r}")
        if len(errors) == count:
            rows[name] = (bytes(map(int, walked)) if mode == "crisp" else
                          (walked[::2], walked[1::2]) if interval else walked)
    return errors, rows, columns


# -- the result -----------------------------------------------------------------


_MATRICES = ("av_out", "an_in", "an_out", "earliest", "later_in", "later_out", "insert", "delete")
_EDGE_MATRICES = ("earliest", "later_out", "insert")


class LcmResult(_Frozen):
    """Every matrix of a pipeline run by matrix name, with the block ids and
    (src, dst) edge keys that index its rows: in crisp mode a list of row ints,
    one 0/1 byte per expression, else a read-only (rows, exprs, w) array view.
    ``av_out`` ... ``delete`` are read-only views of them (block or edge -> row,
    of ``TruthInterval``s in interval mode), each built on its first read;
    ``to_json_dict`` builds its lists from the matrices and builds no view.  Two
    results are equal when their reports are."""

    _fields = ("mode", "exprs", "converged", "_blocks", "_edges", "_matrices")

    def __init__(self, mode: str, exprs: list[str], converged: bool, _blocks: list[str],
                 _edges: list[tuple[str, str]],
                 _matrices: dict[str, Any]) -> None:  # av_out ... delete, in report order
        self.__dict__.update(mode=mode, exprs=exprs, converged=converged, _blocks=_blocks,
                             _edges=_edges, _matrices=_matrices)

    def __getattr__(self, name: str) -> Mapping:
        if name not in _MATRICES:
            raise AttributeError(name)
        keys, values = self._edges if name in _EDGE_MATRICES else self._blocks, self._matrices[name]
        if self.mode == "crisp":
            rows = self._crisp_rows(values)
        elif values.shape[-1] == 1:
            rows = values[..., 0].tolist()
        else:
            rows = [[TruthInterval(lo, hi) for lo, hi in row] for row in values.tolist()]
        self.__dict__[name] = MappingProxyType(dict(zip(keys, rows)))
        return self.__dict__[name]

    def _crisp_rows(self, ints: list[int]) -> list[list[float]]:
        units = map(int.to_bytes, ints, repeat(len(self.exprs)), repeat("little"))
        return _jsonio._floats(b"".join(units), len(ints))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LcmResult) and self.to_json_dict() == other.to_json_dict()

    def to_json_dict(self) -> dict:
        out: dict[str, Any] = {"mode": self.mode, "exprs": list(self.exprs)}
        if self.mode == "crisp":  # every matrix's rows in one pass
            crisp = iter(self._crisp_rows(list(chain.from_iterable(self._matrices.values()))))
        for name, values in self._matrices.items():
            if self.mode == "crisp":
                rows = list(islice(crisp, len(values)))
            else:  # rows of floats, or of [lo, hi] lists
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
    """A valid problem's rows (``_validate``'s), edge keys, edge columns with
    block indices for the ends, and the entry's index; an invalid one raises a
    ValueError whose ``errors`` lists the violations."""
    errors, rows, columns = _validate(problem, mode)
    if errors:
        exc = ValueError("invalid LCM problem: " + "; ".join(errors))
        exc.errors = errors
        raise exc
    index = {b: i for i, b in enumerate(problem.blocks)}
    src, dst = (list(map(index.__getitem__, ends)) for ends in columns[:2])
    return rows, list(zip(*columns[:2])), (src, dst) + columns[2:], index[problem.entry]


# -- crisp mode on bit-vectors -----------------------------------------------------


def _greatest(gen: list[int], keep: list[int], src: list[int], dst: list[int], full: int,
              order: range) -> list[int]:
    """The greatest solution of merge[m] = AND over links l into m of
    gen[l] | (merge[src[l]] & keep[src[l]]), on ints within ``full``, where a
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
    """The four stages on bit-vectors: row b is one int, byte k 0 or 1 for
    expression k, so that & and | work bytewise and ``full ^`` complements."""
    rows, keys, (src, dst, *_), entry = _checked(problem, "crisp")
    n, forward = len(problem.exprs), range(len(problem.blocks))  # edges mostly run forward
    full = int.from_bytes(b"\1" * n, "little")
    dee, uee, kill = ([int.from_bytes(units[i * n:i * n + n], "little") for i in forward]
                      for units in operator.itemgetter("dee", "uee", "kill")(rows))
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
    return LcmResult("crisp", list(problem.exprs), True, list(problem.blocks), keys,
                     dict(zip(_MATRICES, matrices)))


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
    from . import _soft

    return _soft.pipeline(problem, mode, cfg)


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
    parsed = {"edges": _edge_columns(data["edges"])}  # held, or None to walk the field
    edges = parsed["edges"] or _jsonio.load_items(
        data["edges"], "edges",
        lambda raw: _jsonio.load_edge(raw, LcmEdge, ("alpha", "alpha_back")))
    exprs = _jsonio.load_strings(data["exprs"], "exprs")

    def matrix(name: str) -> BlockMatrix | None:
        held = _bulk(_entries(data[name], blocks, len(exprs)), settings.mode, list)
        if held is not None:
            parsed[name] = held
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
    problem._parsed = {name: held for name, held in parsed.items() if held is not None}
    problem._parsed_blocks = list(blocks)
    for name in problem._parsed:  # built on first read, by LcmProblem.__getattr__
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
    ok = (_jsonio.all_of(str, src + dst) and _jsonio.numbers(weights)
          and all(0.0 <= w <= 1.0 for w in weights))  # a NaN fails both
    return (src, dst, tuple(map(float, alpha)), tuple(map(float, alpha_back))) if ok else None


def _entries(raw: Any, blocks: list, width: int) -> list | None:
    """A row matrix's entries, row after row in ``blocks`` order, if it (a file's
    object or a library dict) has a row for each block and no other, each a list
    of ``width`` entries; else None: walk to name a fault."""
    if type(raw) is not dict or list(raw) != blocks and raw.keys() != set(blocks):
        return None
    rows = list(map(raw.__getitem__, blocks))
    if not _jsonio.all_of(list, rows) or list(map(len, rows)).count(width) != len(rows):
        return None
    return list(chain.from_iterable(rows))


def _bulk(flat: list | None, mode: str, pair: type = TruthInterval) -> Any:
    """A row field's entries (see ``_entries``) checked in one pass, for ``mode``:
    one 0/1 byte per entry, if each is a float or non-bool int, +0.0 or 1.0, but
    not in interval mode; else, outside crisp mode, a list of the entries if each
    is such a number in [0, 1], or in interval mode a (lows, highs) pair of lists,
    with each ``pair`` (``list`` in a file, ``TruthInterval`` in the library)
    ordered and such a number v as (v, v).  Else None: walk to name a fault."""
    if flat is None or mode != "interval" and not _jsonio.numbers(flat):
        return None
    if mode == "interval":
        if pair is not list or not _jsonio.all_of(list, flat):  # else [lo, hi] lists, kept as read
            flat = [v if type(v) is list else (v, v) for v in flat] if pair is list else [
                (v.lo, v.hi) if type(v) is pair else (v, v) for v in flat]
        if list(map(len, flat)).count(2) != len(flat):
            return None
        lows, highs = map(list, zip(*flat)) if flat else ([], [])
        ok = (_jsonio.numbers(lows + highs) and all(map(operator.le, lows, highs))  # a NaN fails here
              and 0.0 <= min(lows, default=0.0) and max(highs, default=0.0) <= 1.0)
        return (lows, highs) if ok else None
    if (units := _jsonio._units(flat)) is not None or mode == "crisp":
        return units
    ok = 0.0 <= min(flat) and max(flat) <= 1.0 and (total := sum(flat)) == total  # no NaN
    return flat if ok else None


def load_problem_file(path: str) -> tuple[LcmProblem, _jsonio.Settings]:
    return problem_from_json_dict(_jsonio.load_file(path))
