"""First-order Takagi-Sugeno ANFIS: five-layer evaluation, LMS online and
least-squares offline fitting of the consequent coefficients, plus the
periodic decision harness that refines an update/leave verdict as samples
stream in.

Only the affine consequents adapt; the antecedent membership functions are
fixed (supplied by the caller or a uniform triangular partition of [0,1]).
The layers run on arrays across rules in the scalar definitions' operation
order and add over rules left to right from 0.0, as ``Rule.output`` and the
scalar definitions do (``np.sum`` adds pairwise, and the built-in ``sum``
compensates from Python 3.12 on), so every number is bit-identical to
evaluating the rules one by one.
"""

from __future__ import annotations

import csv
import math
from itertools import product
from typing import Any, Sequence

import numpy as np

from . import _jsonio
from ._jsonio import FileFormatError
from .truth import _Frozen, _Record, _finite, _set

__all__ = [
    "TriangularMf", "Rule", "AnfisModel", "Prediction", "TrainConfig", "HarnessResult",
    "NoRuleFiresError", "DimensionMismatchError", "predict", "lms_update", "ls_fit",
    "uniform_model", "run_harness", "model_to_json_dict", "model_from_json_dict",
    "load_model_file", "read_samples_csv", "split_periods",
]


class NoRuleFiresError(ValueError):
    """The input lies outside the support of every rule."""


class DimensionMismatchError(ValueError):
    pass


class TriangularMf(_Frozen):
    """Triangular membership: 0 outside [a, c], peak 1 at b, linear ramps."""

    _fields = ("a", "b", "c")
    a: float
    b: float
    c: float

    def __init__(self, a: float, b: float, c: float) -> None:
        # An infinite end makes a ramp inf/inf, so membership would be nan.
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise ValueError(f"breakpoints must be finite: {(a, b, c)}")
        if not a <= b <= c:
            raise ValueError(f"breakpoints out of order: {(a, b, c)}")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    def membership(self, x: float) -> float:
        if x == self.b:
            return 1.0
        if x <= self.a or x >= self.c:
            return 0.0
        if x < self.b:
            return (x - self.a) / (self.b - self.a)
        return (self.c - x) / (self.c - self.b)


class Rule(_Frozen):
    _fields = ("antecedents", "consequent")
    antecedents: tuple[TriangularMf, ...]
    consequent: tuple[float, ...]  # c0 + c1*x1 + ... + cn*xn

    def __init__(self, antecedents: Sequence[TriangularMf], consequent: Sequence[float]) -> None:
        antecedents, consequent = tuple(antecedents), tuple(map(float, consequent))
        if len(consequent) != len(antecedents) + 1:
            raise DimensionMismatchError(
                f"rule with {len(antecedents)} antecedents needs "
                f"{len(antecedents) + 1} consequent coefficients"
            )
        _set(self, "antecedents", antecedents)
        _set(self, "consequent", consequent)

    def output(self, x: Sequence[float]) -> float:
        acc = 0.0
        for c, v in zip(self.consequent[1:], x):
            acc += c * v
        return self.consequent[0] + acc


class AnfisModel(_Frozen):
    """The rules are also held as arrays, built once and shared by the models
    that ``lms_update``, ``ls_fit`` and ``run_harness`` derive, which build
    their ``Rule`` objects only when ``rules`` is read."""

    _fields = ("rules", "dim", "and_op")
    rules: tuple[Rule, ...]
    dim: int
    and_op: str  # "min" | "product"

    def __init__(self, rules: Sequence[Rule], dim: int, and_op: str = "min") -> None:
        rules = tuple(rules)
        if not rules:
            raise ValueError("model needs at least one rule")
        if dim < 1:
            raise ValueError(f"input dimension must be >= 1, got {dim}")
        if and_op not in ("min", "product"):
            raise ValueError(f"and_op must be 'min' or 'product', got {and_op!r}")
        for rule in rules:
            if len(rule.antecedents) != dim:
                raise DimensionMismatchError(
                    f"rule has {len(rule.antecedents)} antecedents, model dim is {dim}"
                )
        # Each distinct (input, mf) is evaluated once; ``index`` gathers them.
        antecedents = tuple(rule.antecedents for rule in rules)
        mfs: dict = {}
        index = [[mfs.setdefault(m, len(mfs)) for m in enumerate(ante)] for ante in antecedents]
        k, a, b, c = np.array([(k, mf.a, mf.b, mf.c) for k, mf in mfs]).T
        # Input k is column k + 1 of the (1, x) rows that ``_layers`` builds.
        mf = (k.astype(int) + 1, a, b, c, b - a, c - b, np.array(index).T)
        coef = np.array([rule.consequent for rule in rules])  # rules x (dim + 1)
        self.__dict__.update(rules=rules, dim=dim, and_op=and_op, _antecedents=antecedents, _mf=mf,
                             _coef=coef)

    def _with(self, coef: np.ndarray) -> AnfisModel:  # same antecedents, new consequents
        model = object.__new__(AnfisModel)
        model.__dict__.update(self.__dict__, _coef=coef)
        model.__dict__.pop("rules", None)  # built by __getattr__ when first read
        return model

    def __getattr__(self, name: str) -> Any:
        if name != "rules":
            raise AttributeError(name)
        self.__dict__["rules"] = tuple(map(Rule, self._antecedents, self._coef.tolist()))
        return self.rules


class Prediction(_Record):
    _fields = ("output", "firing", "normalized", "rule_outputs")

    def __init__(self, output: float, firing: list[float], normalized: list[float],
                 rule_outputs: list[float]) -> None:
        self.output = output
        self.firing = firing              # layer 2: w_i
        self.normalized = normalized      # layer 3: w_i / sum_j w_j
        self.rule_outputs = rule_outputs  # f_i(x)


def _total(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right (a cumulative sum is
    sequential); ``+ 0.0`` makes a sum of -0.0 terms 0.0, as a sum from 0.0
    does."""
    return np.cumsum(a, axis=-1)[..., -1] + 0.0


def _inputs(xs: Sequence[Sequence[float]], dim: int) -> np.ndarray:
    """The samples as an (n, dim) array; walked only to name a bad one."""
    try:
        x = np.asarray(xs)
        if x.dtype.kind in "fib" and x.shape == (len(xs), dim) and np.isfinite(x).all():
            return x
    except (TypeError, ValueError, OverflowError):
        pass  # ragged, say
    rows = [[float(v) for v in x] for x in xs]
    for x in rows:
        if len(x) != dim:
            raise DimensionMismatchError(f"expected {dim} inputs, got {len(x)}")
        if not all(map(math.isfinite, x)):
            raise ValueError(f"input {x!r} is not finite")
    return np.array(rows, dtype=float).reshape(len(rows), dim)


def _layers(model: AnfisModel, xs: Sequence[Sequence[float]]):
    """Layers 1-3: inputs as (1, x) rows (n, 1 + dim), firing strengths and
    normalized ones (n, rules)."""
    X1 = np.ones((len(xs), 1 + model.dim))
    X1[:, 1:] = _inputs(xs, model.dim)
    columns, a, b, c, rise, fall, index = model._mf
    x = X1[:, columns]
    # Shoulders' zero-width ramps divide by 0 in branches np.where drops.
    with np.errstate(divide="ignore", invalid="ignore"):
        degrees = np.where(x == b, 1.0, np.where((x <= a) | (x >= c), 0.0, np.where(
            x < b, (x - a) / rise, (c - x) / fall)))[:, index]
    # Conjoin input by input, in order: w = ((mu_1 * mu_2) * mu_3) ...
    w = (np.minimum if model.and_op == "min" else np.multiply).reduce(degrees, axis=1)
    totals = _total(w)
    unfired = np.flatnonzero(totals <= 0.0)
    if unfired.size:
        raise NoRuleFiresError(f"input {X1[unfired[0], 1:].tolist()!r} fires no rule")
    return X1, w, w / totals[:, None]


def _outputs(coef: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Layer 4: f_i(x) = c_i0 + (((0.0 + c_i1*x_1) + c_i2*x_2) + ...), added
    as ``Rule.output`` adds.  ``coef`` (..., rules, 1 + dim) and the (1, x)
    rows ``x1`` (..., 1 + dim) broadcast against each other, giving
    (..., rules)."""
    acc = coef[..., 1] * x1[..., 1, None]
    acc += 0.0
    for k in range(2, x1.shape[-1]):
        acc += coef[..., k] * x1[..., k, None]
    return np.add(coef[..., 0], acc, out=acc)


def _lms(coef: np.ndarray, x1: np.ndarray, nw: np.ndarray, e: np.ndarray | float,
         mu: float) -> None:
    """``lms_update``'s step on ``coef`` (..., rules, 1 + dim) in place, with
    one error in ``e`` (...) per model and ``x1`` = (1, x): g = (mu*e)*nw,
    c0 += g * 1.0 (which is g) and ck += g * xk."""
    coef += ((mu * np.asarray(e))[..., None] * nw)[..., None] * x1


def predict(model: AnfisModel, x: Sequence[float]) -> Prediction:
    """Layers 1-5: memberships, firing strengths, normalization, weighted
    consequents, sum.  Raises NoRuleFiresError when no rule covers ``x`` and
    ValueError when an input is NaN or infinite."""
    X, w, nw = _layers(model, [x])
    f = _outputs(model._coef, X[0])
    return Prediction(float(_total(nw[0] * f)), w[0].tolist(), nw[0].tolist(), f.tolist())


def lms_update(model: AnfisModel, x: Sequence[float], target: float, mu: float) -> AnfisModel:
    """One stochastic-gradient step on this sample's squared error:
    c(i,0) += mu*e*wbar_i and c(i,k) += mu*e*wbar_i*x_k, e the signed error."""
    X, _, nw = _layers(model, [x])
    coef = model._coef.copy()
    _lms(coef, X[0], nw[0], float(target) - _total(nw[0] * _outputs(coef, X[0])), mu)
    return model._with(coef)


def ls_fit(model: AnfisModel, X: Sequence[Sequence[float]], Y: Sequence[float]) -> AnfisModel:
    """Joint least squares over all consequents, one row [wbar_1*(1,x), ...,
    wbar_R*(1,x)] per sample; rank-revealing, so minimum norm if underdetermined."""
    if len(X) != len(Y):
        raise DimensionMismatchError(f"{len(X)} samples but {len(Y)} targets")
    if len(X) == 0:
        raise ValueError("need at least one sample")
    X, _, nw = _layers(model, X)
    return model._with(_ls(X, nw, Y))


def _ls(x1: np.ndarray, nw: np.ndarray, Y: Sequence[float]) -> np.ndarray:
    """``ls_fit``'s consequents from the (1, x) rows and strengths of ``_layers``."""
    rows = (nw[:, :, None] * x1[:, None, :]).reshape(len(x1), -1)
    coeffs, *_ = np.linalg.lstsq(rows, np.asarray(Y, dtype=float), rcond=None)
    return coeffs.reshape(-1, x1.shape[1])


def uniform_model(dim: int, mfs_per_dim: int = 3, and_op: str = "min") -> AnfisModel:
    """Grid model over [0,1]^dim: a uniform triangular partition per input,
    one rule per combination, all consequents zero."""
    if dim < 1 or mfs_per_dim < 2:
        raise ValueError("need dim >= 1 and at least 2 membership functions per input")
    peaks = [i / (mfs_per_dim - 1) for i in range(mfs_per_dim)]
    ends = [peaks[0], *peaks, peaks[-1]]
    partition = [TriangularMf(*ends[i : i + 3]) for i in range(mfs_per_dim)]
    zero = tuple(0.0 for _ in range(dim + 1))
    return AnfisModel([Rule(ante, zero) for ante in product(partition, repeat=dim)], dim, and_op)


# -- decision harness ---------------------------------------------------------


class TrainConfig(_Frozen):
    _fields = ("mu", "retrain_error_threshold")
    mu: float
    retrain_error_threshold: float

    def __init__(self, mu: float, retrain_error_threshold: float = 0.8) -> None:
        if not (_finite(mu) and mu > 0.0):
            raise ValueError(f"mu must be > 0 and finite, got {mu!r}")
        if not (_finite(retrain_error_threshold) and 0.0 <= retrain_error_threshold <= 1.0):
            raise ValueError(
                f"retrain_error_threshold must be in [0,1], got {retrain_error_threshold}")
        _set(self, "mu", mu)
        _set(self, "retrain_error_threshold", retrain_error_threshold)


class HarnessResult(_Record):
    _fields = ("error_rates", "update_model", "leave_model")

    def __init__(self, error_rates: list[float], update_model: AnfisModel,
                 leave_model: AnfisModel) -> None:
        self.error_rates = error_rates
        self.update_model = update_model
        self.leave_model = leave_model


def run_harness(
    update_model: AnfisModel,
    leave_model: AnfisModel,
    periods: Sequence[Sequence[Sequence[float]]],
    labels: Sequence[Sequence[bool]],
    tc: TrainConfig,
) -> HarnessResult:
    """Stream periods of samples through the two-score decision rule.

    A sample is classified "update" when the update model outscores the
    leave model; ties count as errors.  Each misclassification triggers one
    LMS step per model (target 1 for the correct class, 0 for the other).
    When a period closes with an error rate at or above the threshold, both
    models are refit by least squares on that period's samples.
    """
    if len(periods) != len(labels):
        raise DimensionMismatchError(f"{len(periods)} periods but {len(labels)} label groups")
    # Both models' consequents are one (2, rules, 1 + dim) array.
    n_rules = (len(update_model._coef), len(leave_model._coef))
    coefs = _pair(update_model._coef, leave_model._coef)
    padding = np.arange(coefs.shape[1]) >= np.array(n_rules)[:, None]
    rates: list[float] = []
    for xs, ys in zip(periods, labels):
        if len(xs) != len(ys):
            raise DimensionMismatchError("period and label lengths differ")
        # Layers 1-3 depend on the antecedents only, which models derived from
        # one another share.
        X, _, nu = _layers(update_model, xs)
        nv = nu if leave_model._mf is update_model._mf else _layers(leave_model, xs)[2]
        nws = _pair(nu.T, nv.T).transpose(2, 0, 1)  # (samples, 2, rules)
        should_update = np.array(ys, dtype=bool)
        errors = start = 0
        # Only a misclassified sample changes the consequents, so the rest of
        # the period is scored at once, up to the first misclassification.
        while start < len(X):
            scores = _total(nws[start:] * _outputs(coefs, X[start:, None]))  # (samples, 2)
            u, v = scores[:, 0], scores[:, 1]
            wrong = ~np.where(should_update[start:], u > v, v > u)  # a tie is an error
            if not wrong.any():
                break
            k = int(wrong.argmax())
            i = start + k
            errors += 1
            targets = np.array((1.0, 0.0) if should_update[i] else (0.0, 1.0))
            _lms(coefs, X[i], nws[i], targets - scores[k], tc.mu)
            coefs[padding] = 0.0  # also where mu*e is infinite, as 0 * inf is nan
            start = i + 1
        rate = errors / len(xs) if len(xs) else 0.0
        rates.append(rate)
        if len(xs) and rate >= tc.retrain_error_threshold:
            targets = should_update.astype(float)
            coefs = _pair(_ls(X, nu, targets), _ls(X, nv, 1.0 - targets))
    return HarnessResult(rates, update_model._with(coefs[0, :n_rules[0]]),
                         leave_model._with(coefs[1, :n_rules[1]]))


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a`` and ``b`` (rules, ...) stacked as (2, rules, ...), the one with
    fewer rules padded with zeros.  A padding rule fires with strength 0 and
    outputs 0.0, so its terms in a score are 0.0 and change no sum that
    ``_total`` returns."""
    out = np.zeros((2, max(len(a), len(b))) + a.shape[1:])
    out[0, :len(a)], out[1, :len(b)] = a, b
    return out


def split_periods(
    X: Sequence[Sequence[float]], labels: Sequence[bool], period_length: int
) -> tuple[list[list[Sequence[float]]], list[list[bool]]]:
    """Chop a sample stream into consecutive periods of the given length;
    a shorter trailing period is kept."""
    if period_length < 1:
        raise ValueError("period_length must be >= 1")
    periods, period_labels = [], []
    for start in range(0, len(X), period_length):
        periods.append(list(X[start : start + period_length]))
        period_labels.append(list(labels[start : start + period_length]))
    return periods, period_labels


# -- serialization -------------------------------------------------------------


def model_to_json_dict(model: AnfisModel) -> dict:
    pairs = zip(model._antecedents, model._coef.tolist())
    rules = [{"antecedents": [[m.a, m.b, m.c] for m in ante], "consequent": c} for ante, c in pairs]
    return {"dim": model.dim, "and_op": model.and_op, "rules": rules}


def model_from_json_dict(data: Any) -> AnfisModel:
    """Every number must be a finite JSON number, ``dim`` an integer."""
    _jsonio.check_keys(data, "model", ["dim", "and_op", "rules"])
    num = _jsonio.load_number
    try:
        rules = []
        for i, raw in enumerate(_jsonio.load_list(data["rules"], "rules")):
            _jsonio.check_keys(raw, f"rules[{i}]", ["antecedents", "consequent"])
            ante, where = raw["antecedents"], f"rules[{i}].antecedents"
            mfs = []
            for j, abc in enumerate(_jsonio.load_list(ante, where)):
                if len(_jsonio.load_list(abc, f"{where}[{j}]")) != 3:
                    raise FileFormatError(f"{where}[{j}]: expected 3 breakpoints, got {len(abc)}")
                mfs.append([num(v, where) for v in abc])
            coef, where = raw["consequent"], f"rules[{i}].consequent"
            consequent = [num(c, where) for c in _jsonio.load_list(coef, where)]
            rules.append(Rule(tuple(TriangularMf(*abc) for abc in mfs), consequent))
        dim = num(data["dim"], "dim", integer=True)
        return AnfisModel(rules, dim, _jsonio.load_string(data["and_op"], "and_op"))
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"model: {exc}") from None


def load_model_file(path: str) -> AnfisModel:
    return model_from_json_dict(_jsonio.load_file(path))


def read_samples_csv(path: str) -> tuple[list[list[float]], list[bool]]:
    """Read harness samples: columns x1..xn plus a final 0/1 label column; a
    first row with a non-numeric cell is a header and is skipped."""
    X, labels = [], []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for row_no, row in enumerate(csv.reader(handle), start=1):
            if not any(cell.strip() for cell in row):
                continue
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                if row_no == 1:
                    continue
                raise FileFormatError(f"{path}: row {row_no}: non-numeric value") from None
            if not all(map(math.isfinite, values)):
                raise FileFormatError(f"{path}: row {row_no}: NaN or infinite value")
            if len(values) < 2:
                raise FileFormatError(f"{path}: row {row_no}: need at least one input and a label")
            X.append(values[:-1])
            labels.append(values[-1] != 0.0)
    if not X:
        raise FileFormatError(f"{path}: no samples")
    widths = {len(row) for row in X}
    if len(widths) != 1:
        raise FileFormatError(f"{path}: inconsistent column counts {sorted(widths)}")
    return X, labels
