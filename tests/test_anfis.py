import math
import random
import warnings

import numpy as np
import pytest

from fuzzydfa._jsonio import FileFormatError
from fuzzydfa.anfis import (
    AnfisModel,
    DimensionMismatchError,
    NoRuleFiresError,
    Rule,
    TrainConfig,
    TriangularMf,
    lms_update,
    ls_fit,
    model_from_json_dict,
    model_to_json_dict,
    predict,
    read_samples_csv,
    run_harness,
    split_periods,
    uniform_model,
)
from conftest import ltr_sum


def two_rule_model(and_op: str = "min") -> AnfisModel:
    """Two rules over two inputs with the triangular fuzzy sets used by the
    worked classification of <0.6, 0.2>."""
    return AnfisModel(
        rules=(
            Rule(
                (TriangularMf(0.35, 0.5, 0.75), TriangularMf(0.05, 0.15, 0.25)),
                (0.0, 0.2, -0.43),
            ),
            Rule(
                (TriangularMf(0.5, 0.85, 0.9), TriangularMf(0.15, 0.65, 0.8)),
                (0.5, 0.0, 0.1),
            ),
        ),
        dim=2,
        and_op=and_op,
    )


# -- membership functions ------------------------------------------------------


def test_triangular_membership_shape():
    mf = TriangularMf(0.2, 0.5, 0.6)
    assert mf.membership(0.1) == 0.0
    assert mf.membership(0.2) == 0.0
    assert mf.membership(0.35) == pytest.approx(0.5)
    assert mf.membership(0.5) == 1.0
    assert mf.membership(0.55) == pytest.approx(0.5)
    assert mf.membership(0.7) == 0.0


def test_degenerate_triangles():
    spike = TriangularMf(0.5, 0.5, 0.5)
    assert spike.membership(0.5) == 1.0
    assert spike.membership(0.5001) == 0.0
    shoulder = TriangularMf(0.0, 0.0, 0.5)
    assert shoulder.membership(0.0) == 1.0
    assert shoulder.membership(0.25) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        TriangularMf(0.6, 0.5, 0.7)


@pytest.mark.parametrize("points", [(-math.inf, 0.0, 1.0), (0.0, 0.5, math.inf),
                                    (0.0, math.nan, 1.0), (-math.inf, -math.inf, math.inf)])
def test_non_finite_breakpoints_are_rejected(points):
    with pytest.raises(ValueError, match=r"^breakpoints must be finite: "):
        TriangularMf(*points)


# -- predict ----------------------------------------------------------------------


def test_worked_example_with_min_conjunction():
    pred = predict(two_rule_model(), [0.6, 0.2])
    assert pred.firing[0] == pytest.approx(0.5, abs=1e-12)
    assert pred.firing[1] == pytest.approx(0.1, abs=1e-12)
    assert pred.normalized[0] == pytest.approx(0.833, abs=1e-3)
    assert pred.rule_outputs[0] == pytest.approx(0.034, abs=1e-12)
    assert pred.rule_outputs[1] == pytest.approx(0.52, abs=1e-12)
    assert pred.output == pytest.approx(0.115, abs=1e-3)


def test_worked_example_with_product_conjunction():
    # Same layers with product firing strengths; value frozen from a direct
    # evaluation: w = (0.3, 2/70), output = (21*0.034 + 2*0.52)/23.
    pred = predict(two_rule_model("product"), [0.6, 0.2])
    assert pred.output == pytest.approx(0.07626086956521738, abs=1e-12)


def test_single_rule_constant_consequent():
    model = AnfisModel(
        rules=(Rule((TriangularMf(0.0, 0.5, 1.0),), (0.7, 0.0)),), dim=1, and_op="min"
    )
    for x in (0.2, 0.5, 0.9):
        pred = predict(model, [x])
        assert pred.output == pytest.approx(0.7)
        assert pred.normalized == [1.0]


def test_duplicate_rules_do_not_change_the_output():
    base = two_rule_model()
    doubled = AnfisModel(base.rules + base.rules, dim=2, and_op="min")
    x = [0.6, 0.2]
    assert predict(doubled, x).output == pytest.approx(predict(base, x).output, abs=1e-12)


def test_normalized_weights_sum_to_one():
    rng = random.Random(73)
    model = uniform_model(2, 3)
    for _ in range(200):
        x = [rng.random(), rng.random()]
        pred = predict(model, x)
        assert sum(pred.normalized) == pytest.approx(1.0, abs=1e-12)


def test_output_is_a_convex_combination_of_rule_outputs():
    rng = random.Random(79)
    model = two_rule_model()
    for _ in range(200):
        x = [rng.uniform(0.36, 0.74), rng.uniform(0.16, 0.24)]
        pred = predict(model, x)
        assert min(pred.rule_outputs) - 1e-12 <= pred.output <= max(pred.rule_outputs) + 1e-12


def test_output_is_positive_zero_when_every_weighted_output_underflows():
    # 0.5 * -5e-324 rounds to -0.0 in both rules; a sum from 0.0 gives 0.0.
    rule = Rule((TriangularMf(0.0, 0.5, 1.0),), (-5e-324, 0.0))
    model = AnfisModel((rule, rule), 1)
    pred = predict(model, [0.5])
    assert bits(pred.rule_outputs) == bits([-5e-324, -5e-324])
    assert bits([pred.output]) == bits(scalar_predict(model, [0.5])[:1]) == bits([0.0])


def test_no_rule_fires():
    model = two_rule_model()
    with pytest.raises(NoRuleFiresError):
        predict(model, [0.0, 0.99])
    with pytest.raises(DimensionMismatchError):
        predict(model, [0.5])


# -- LMS --------------------------------------------------------------------------


def test_lms_no_error_means_no_change():
    model = two_rule_model()
    x = [0.6, 0.2]
    target = predict(model, x).output
    assert lms_update(model, x, target, mu=0.5) == model


def test_lms_single_rule_constant_step():
    model = AnfisModel(
        rules=(Rule((TriangularMf(0.0, 0.5, 1.0),), (0.0, 0.0)),), dim=1, and_op="min"
    )
    updated = lms_update(model, [0.3], target=1.0, mu=0.1)
    assert updated.rules[0].consequent[0] == pytest.approx(0.1)  # mu * e * wbar
    assert updated.rules[0].consequent[1] == pytest.approx(0.03)  # ... * x


def test_lms_repeated_updates_converge_on_one_sample():
    model = uniform_model(2, 3)
    x = [0.3, 0.7]
    target = 0.8
    errors = []
    for _ in range(1000):
        errors.append(abs(target - predict(model, x).output))
        model = lms_update(model, x, target, mu=0.2)
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-6


def test_lms_direction_matches_finite_difference_gradient():
    rng = random.Random(83)
    for _ in range(30):
        model = uniform_model(2, 2, and_op="product" if rng.random() < 0.5 else "min")
        rules = []
        for rule in model.rules:
            rules.append(Rule(rule.antecedents, tuple(rng.uniform(-1, 1) for _ in range(3))))
        model = AnfisModel(tuple(rules), 2, model.and_op)
        x = [rng.random(), rng.random()]
        target = rng.uniform(-1, 2)
        mu = 1e-3
        updated = lms_update(model, x, target, mu)
        h = 1e-6
        for r in range(len(model.rules)):
            for k in range(3):
                step = (updated.rules[r].consequent[k] - model.rules[r].consequent[k]) / mu
                bumped = [list(rule.consequent) for rule in model.rules]
                bumped[r][k] += h
                bumped_model = AnfisModel(
                    tuple(Rule(rule.antecedents, tuple(c)) for rule, c in zip(model.rules, bumped)),
                    2,
                    model.and_op,
                )
                e0 = (target - predict(model, x).output) ** 2
                e1 = (target - predict(bumped_model, x).output) ** 2
                grad_fd = (e1 - e0) / h
                # update direction is -grad/2 (the LMS convention absorbs the 2)
                assert step == pytest.approx(-grad_fd / 2.0, rel=1e-4, abs=1e-6)


# -- least squares -------------------------------------------------------------------


def test_ls_recovers_exact_affine_data():
    model = AnfisModel(
        rules=(Rule((TriangularMf(0.0, 0.5, 1.0),), (0.0, 0.0)),), dim=1, and_op="min"
    )
    rng = random.Random(89)
    X = [[rng.uniform(0.05, 0.95)] for _ in range(40)]
    Y = [0.3 + 0.5 * x[0] for x in X]
    fitted = ls_fit(model, X, Y)
    assert fitted.rules[0].consequent[0] == pytest.approx(0.3, abs=1e-8)
    assert fitted.rules[0].consequent[1] == pytest.approx(0.5, abs=1e-8)


def test_ls_underdetermined_fits_exactly_with_minimum_norm():
    model = uniform_model(2, 3)  # 27 coefficients
    rng = random.Random(97)
    X = [[rng.random(), rng.random()] for _ in range(10)]
    Y = [rng.random() for _ in X]
    fitted = ls_fit(model, X, Y)
    for x, y in zip(X, Y):
        assert predict(fitted, x).output == pytest.approx(y, abs=1e-8)
    coeffs = np.array([c for rule in fitted.rules for c in rule.consequent])
    # any solution of the exact-fit system is at least as long as lstsq's
    assert np.linalg.norm(coeffs) < 10.0


def test_ls_residual_matches_normal_equations_oracle():
    rng = random.Random(101)
    model = uniform_model(1, 2)
    X = [[rng.random()] for _ in range(60)]
    Y = [math.sin(3.0 * x[0]) + 0.1 * rng.random() for x in X]
    fitted = ls_fit(model, X, Y)

    rows = []
    for x in X:
        pred = predict(model, x)
        rows.append([nw * b for nw in pred.normalized for b in (1.0, x[0])])
    A = np.array(rows)
    y = np.array(Y)
    oracle = np.linalg.solve(A.T @ A, A.T @ y)
    fitted_res = np.linalg.norm(A @ np.array([c for r in fitted.rules for c in r.consequent]) - y)
    oracle_res = np.linalg.norm(A @ oracle - y)
    assert fitted_res == pytest.approx(oracle_res, abs=1e-8)


def test_ls_first_order_optimality():
    rng = random.Random(103)
    model = uniform_model(1, 3)
    X = [[rng.random()] for _ in range(50)]
    Y = [x[0] ** 2 for x in X]
    fitted = ls_fit(model, X, Y)

    def residual(m):
        return sum((predict(m, x).output - y) ** 2 for x, y in zip(X, Y))

    base = residual(fitted)
    for r in range(len(fitted.rules)):
        for k in range(2):
            for delta in (-1e-3, 1e-3):
                coeffs = [list(rule.consequent) for rule in fitted.rules]
                coeffs[r][k] += delta
                bumped = AnfisModel(
                    tuple(Rule(rule.antecedents, tuple(c)) for rule, c in zip(fitted.rules, coeffs)),
                    1,
                    fitted.and_op,
                )
                assert residual(bumped) >= base - 1e-12


def test_ls_dimension_mismatch():
    model = uniform_model(1, 2)
    with pytest.raises(DimensionMismatchError):
        ls_fit(model, [[0.5]], [1.0, 2.0])


# -- harness -------------------------------------------------------------------------


def test_harness_empty_input_gives_empty_output():
    tc = TrainConfig(mu=0.1)
    result = run_harness(uniform_model(1, 2), uniform_model(1, 2), [], [], tc)
    assert result.error_rates == []


def test_harness_learns_a_separable_stream():
    # Constant-label stream: the decision never depends on the input, so the
    # classifier must reach zero error once it has adapted.
    rng = random.Random(107)
    X = [[rng.random()] for _ in range(250)]
    labels = [True] * len(X)
    periods, period_labels = split_periods(X, labels, 25)
    result = run_harness(
        uniform_model(1, 3), uniform_model(1, 3), periods, period_labels, TrainConfig(mu=0.1)
    )
    assert len(result.error_rates) == 10
    assert result.error_rates[-1] == 0.0
    assert result.error_rates[-1] <= result.error_rates[0]


@pytest.mark.parametrize("mu", [0.001, 0.05, 0.15, 0.1])
def test_harness_periodic_signal_improves(mu):
    # 10 periods x 25 samples of a noisy periodic signal; the label follows a
    # fixed threshold rule on the signal value.
    rng = random.Random(109)
    periods, period_labels = [], []
    for period in range(10):
        xs, ys = [], []
        for k in range(25):
            signal = 0.5 + 0.4 * math.sin(2.0 * math.pi * k / 25.0) + rng.uniform(-0.05, 0.05)
            signal = min(1.0, max(0.0, signal))
            xs.append([k / 25.0, signal])
            ys.append(signal > 0.55)
        periods.append(xs)
        period_labels.append(ys)
    result = run_harness(
        uniform_model(2, 3),
        uniform_model(2, 3),
        periods,
        period_labels,
        TrainConfig(mu=mu, retrain_error_threshold=0.8),
    )
    assert len(result.error_rates) == 10
    assert result.error_rates[-1] <= result.error_rates[0]


def test_harness_ties_count_as_errors():
    # Zero-initialised models tie on every sample, so the first period is
    # all errors regardless of the labels.
    X = [[0.5]] * 4
    labels = [True, False, True, False]
    result = run_harness(
        uniform_model(1, 2),
        uniform_model(1, 2),
        [X[:2]],
        [labels[:2]],
        TrainConfig(mu=1e-9, retrain_error_threshold=1.0),
    )
    assert result.error_rates[0] == 1.0


def reference_harness(update, leave, periods, labels, tc):
    """``run_harness`` sample by sample through the public layers: score the
    sample under both models; on a misclassification (a tie included) take
    one LMS step per model before the next sample; when a period's error
    rate reaches the threshold, refit both models by least squares."""
    rates = []
    for xs, ys in zip(periods, labels):
        errors = 0
        for x, should_update in zip(xs, ys):
            u, v = predict(update, x).output, predict(leave, x).output
            if not ((u > v) if should_update else (v > u)):
                errors += 1
                target = 1.0 if should_update else 0.0
                update = lms_update(update, x, target, tc.mu)
                leave = lms_update(leave, x, 1.0 - target, tc.mu)
        rate = errors / len(xs) if len(xs) else 0.0
        rates.append(rate)
        if len(xs) and rate >= tc.retrain_error_threshold:
            targets = [1.0 if y else 0.0 for y in ys]
            update = ls_fit(update, xs, targets)
            leave = ls_fit(leave, xs, [1.0 - t for t in targets])
    return rates, update, leave


def assert_harness_matches_reference(update, leave, periods, labels, tc):
    result = run_harness(update, leave, periods, labels, tc)
    rates, ref_update, ref_leave = reference_harness(update, leave, periods, labels, tc)
    assert bits(result.error_rates) == bits(rates)
    assert result.update_model._coef.tobytes() == ref_update._coef.tobytes()
    assert result.leave_model._coef.tobytes() == ref_leave._coef.tobytes()
    return result.error_rates


def with_consequents(model, consequent):
    """A model built afresh (its antecedent arrays not shared with ``model``)
    with ``consequent()`` for each rule."""
    rules = tuple(Rule(rule.antecedents, consequent()) for rule in model.rules)
    return AnfisModel(rules, model.dim, model.and_op)


@pytest.mark.parametrize("threshold", [0.0, 0.8, 1.0])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("and_op", ["min", "product"])
def test_harness_matches_the_per_sample_reference_bit_for_bit(and_op, shared, threshold):
    rng = random.Random(f"harness-oracle/{and_op}/{shared}/{threshold}")
    dim = 3

    def consequent():
        return tuple(rng.uniform(-1, 1) for _ in range(dim + 1))

    update = with_consequents(uniform_model(dim, 3, and_op), consequent)
    if shared:  # derived, so both models share their antecedent arrays
        leave = lms_update(update, [0.2, 0.4, 0.6], 1.0, 0.5)
    else:
        leave = with_consequents(uniform_model(dim, 4, and_op), consequent)
    normal = [rng.uniform(-1, 1) for _ in range(dim)]
    periods, labels = [], []
    for length in (6, 0, 1, 1, 25, 13, 1, 25, 0, 9):
        xs = [random_input(rng, dim) for _ in range(length)]
        flip = rng.random() < 0.4
        periods.append(xs)
        labels.append([(sum(a * v for a, v in zip(normal, x)) > 0.0) != flip for x in xs])
    rates = assert_harness_matches_reference(
        update, leave, periods, labels, TrainConfig(mu=0.3, retrain_error_threshold=threshold))
    assert 0.0 < max(rates) and 0.0 in rates


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("and_op", ["min", "product"])
def test_harness_all_correct_and_all_wrong_periods_match_the_reference(and_op, shared):
    # The update model scores 2 and the leave model -2 on every input, and the
    # steps are too small to turn a verdict: a period labelled all "update" is
    # all correct, one labelled all "leave" all wrong.
    rng = random.Random(f"harness-extremes/{and_op}/{shared}")
    update = with_consequents(uniform_model(2, 3, and_op), lambda: (2.0, 0.0, 0.0))
    X = [random_input(rng, 2) for _ in range(30)]
    leave = (ls_fit(update, X, [-2.0] * len(X)) if shared
             else with_consequents(uniform_model(2, 3, and_op), lambda: (-2.0, 0.0, 0.0)))
    periods = [X[:10], X[10:20], X[20:], X[:5]]
    labels = [[True] * 10, [False] * 10, [True] * 10, [False] * 5]
    for threshold in (0.0, 0.8, 1.0):
        tc = TrainConfig(mu=1e-6, retrain_error_threshold=threshold)
        rates = assert_harness_matches_reference(update, leave, periods[:2], labels[:2], tc)
        assert rates == [0.0, 1.0]
        assert_harness_matches_reference(update, leave, periods, labels, tc)


def fixed_verdict_pair(and_op, rules):
    """An update model that scores 2 and a leave model that scores -2 on
    every input: ``rules`` "shared" derives the leave model from the update
    one, "separate" builds it afresh with as many rules, and "fewer-update"
    or "fewer-leave" gives that model 4 rules against the other's 9, so the
    harness pads it."""
    sizes = {"fewer-update": (2, 3), "fewer-leave": (3, 2)}.get(rules, (3, 3))
    update = with_consequents(uniform_model(2, sizes[0], and_op), lambda: (2.0, 0.0, 0.0))
    if rules == "shared":
        X = [[i / 4, j / 4] for i in range(5) for j in range(5)]
        return update, ls_fit(update, X, [-2.0] * len(X))
    return update, with_consequents(uniform_model(2, sizes[1], and_op), lambda: (-2.0, 0.0, 0.0))


@pytest.mark.parametrize("length", [0, 1, 3, 4, 5, 8, 12, 13, 25, 60])
@pytest.mark.parametrize("rules", ["shared", "separate", "fewer-update", "fewer-leave"])
@pytest.mark.parametrize("and_op", ["min", "product"])
def test_harness_window_edges_match_the_reference(and_op, rules, length):
    # The harness scores a period in windows that start short and double, so
    # a misclassification may fall anywhere in one: on its first or last
    # sample, or past the end of a short period.  The steps (mu = 1e-6) are
    # too small to turn a verdict, so a label says whether a sample is wrong:
    # "leave" is wrong.  One period per position of its first (and only)
    # error, then all correct, every third wrong, all wrong (which refits,
    # so it comes last, and is the one-error period of one sample).
    rng = random.Random(f"harness-windows/{and_op}/{rules}/{length}")
    update, leave = fixed_verdict_pair(and_op, rules)
    xs = [random_input(rng, 2) for _ in range(length)]
    firsts = range(length) if length > 1 else ()
    patterns = [[k != first for k in range(length)] for first in firsts]
    patterns += [[True] * length, [k % 3 != 2 for k in range(length)], [False] * length]
    tc = TrainConfig(mu=1e-6, retrain_error_threshold=1.0)
    rates = assert_harness_matches_reference(update, leave, [xs] * len(patterns), patterns, tc)
    if length:
        assert rates == [1 / length] * len(firsts) + [0.0, (length // 3) / length, 1.0]
    # The same period lengths with verdicts that LMS steps do turn.
    update = with_consequents(update, lambda: tuple(rng.uniform(-1, 1) for _ in range(3)))
    leave = with_consequents(leave, lambda: tuple(rng.uniform(-1, 1) for _ in range(3)))
    periods = [[random_input(rng, 2) for _ in range(length)] for _ in range(4)]
    labels = [[rng.random() < 0.5 for _ in period] for period in periods]
    assert_harness_matches_reference(update, leave, periods, labels,
                                     TrainConfig(mu=0.3, retrain_error_threshold=0.8))


def test_harness_with_fewer_update_rules_matches_the_reference_after_an_overflow():
    # One rule that always fires fully against a two-rule leave model.  The
    # first step overflows (mu*e = -inf), so the update model outputs -inf
    # and the next "leave" sample is classified correctly; the step on the
    # "update" sample after it adds inf to -inf, and a nan score is an error
    # whatever the label.
    update = AnfisModel((Rule((TriangularMf(-1.0, 0.5, 2.0),), (1e308, 0.0)),), 1)
    leave = uniform_model(1, 2)
    periods, labels = [[[0.3], [0.6], [0.9], [0.4]]], [[False, False, True, False]]
    with np.errstate(all="ignore"):
        rates = assert_harness_matches_reference(update, leave, periods, labels,
                                                 TrainConfig(mu=10.0, retrain_error_threshold=1.0))
    assert rates == [3 / 4]


def test_an_overflowing_lms_step_warns_nothing():
    # The second step's mu*e overflows to -inf, and inf * 0 then makes nan.
    model = uniform_model(1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([0.3], [0.3], [0.6]):
            model = lms_update(model, x, 1.0, 1e308)
    assert np.isnan(model._coef).all()


def test_model_rejects_zero_dimension():
    with pytest.raises(ValueError):
        AnfisModel(rules=(Rule((), (0.5,)),), dim=0, and_op="min")


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mu=0.0)
    with pytest.raises(ValueError):
        TrainConfig(mu=0.1, retrain_error_threshold=1.5)


@pytest.mark.parametrize("mu", [math.inf, math.nan, -0.1, 0, True, "0.1", None],
                         ids=["inf", "nan", "negative", "zero", "bool", "string", "none"])
def test_train_config_requires_a_finite_positive_mu(mu):
    with pytest.raises(ValueError) as info:
        TrainConfig(mu=mu)
    assert str(info.value) == f"mu must be > 0 and finite, got {mu!r}"
    assert TrainConfig(mu=1e300).mu == 1e300 and TrainConfig(mu=2).mu == 2


_MF = TriangularMf(0.0, 0.5, 1.0)
_RULE = Rule([_MF], [0.0, 1.0])
_ONE = AnfisModel([_RULE], 1)


@pytest.mark.parametrize("make, kind, message", [
    (lambda: Rule([_MF], [1.0]), DimensionMismatchError,
     "rule with 1 antecedents needs 2 consequent coefficients"),
    (lambda: AnfisModel([], 1), ValueError, "model needs at least one rule"),
    (lambda: AnfisModel([_RULE], 0), ValueError, "input dimension must be >= 1, got 0"),
    (lambda: AnfisModel([_RULE], 1, "max"), ValueError,
     "and_op must be 'min' or 'product', got 'max'"),
    (lambda: AnfisModel([_RULE], 2), DimensionMismatchError,
     "rules[0] has 1 antecedents, model dim is 2"),
    (lambda: AnfisModel([_RULE, Rule([_MF, _MF], [0.0] * 3)], 1), DimensionMismatchError,
     "rules[1] has 2 antecedents, model dim is 1"),
    (lambda: ls_fit(_ONE, [], []), ValueError, "need at least one sample"),
    (lambda: uniform_model(0), ValueError,
     "need dim >= 1 and at least 2 membership functions per input"),
    (lambda: uniform_model(1, 1), ValueError,
     "need dim >= 1 and at least 2 membership functions per input"),
    (lambda: split_periods([[0.5]], [True], 0), ValueError, "period_length must be >= 1"),
    (lambda: split_periods([[0.1], [0.2], [0.3]], [True] * 5, 2), DimensionMismatchError,
     "3 samples but 5 labels"),
    (lambda: split_periods([[0.1], [0.2], [0.3]], [True], 2), DimensionMismatchError,
     "3 samples but 1 labels"),
    (lambda: run_harness(_ONE, _ONE, [[[0.5]]], [], TrainConfig(0.1)), DimensionMismatchError,
     "1 periods but 0 label groups"),
    (lambda: run_harness(_ONE, _ONE, [[[0.5]]], [[True, False]], TrainConfig(0.1)),
     DimensionMismatchError, "period and label lengths differ"),
    (lambda: run_harness(_ONE, uniform_model(2, 2), [], [], TrainConfig(0.1)),
     DimensionMismatchError, "update model has dim 1 but leave model has dim 2"),
], ids=["rule-consequent", "no-rules", "dim-zero", "and-op", "rule-dim", "second-rule-dim",
        "ls-no-samples",
        "uniform-dim", "uniform-mfs", "period-length", "split-more-labels", "split-fewer-labels",
        "harness-periods", "harness-labels", "harness-pair-dims"])
def test_construction_and_argument_errors_are_named(make, kind, message):
    with pytest.raises(kind) as raised:
        make()
    assert type(raised.value) is kind and str(raised.value) == message


@pytest.mark.parametrize("text, message", [
    ("x1,label\n0.1,1\nabc,1\n", "row 3: non-numeric value"),
    ("x1,label\n0.5\n", "row 2: need at least one input and a label"),
    ("x1,label\n", "no samples"),
    ("x1,x2,label\n0.1,0.2,1\n0.5,1\n", "inconsistent column counts [1, 2]"),
    ("x1,label\n0.1,1\n0.2,0.5\n", "row 3: label must be 0 or 1, got '0.5'"),
    ("x1,label\n0.1,2\n", "row 2: label must be 0 or 1, got '2'"),
    ("0.1,0\n0.2,-1\n", "row 2: label must be 0 or 1, got '-1'"),
], ids=["non-numeric", "one-column", "no-samples", "ragged", "label-half", "label-two",
        "label-negative"])
def test_csv_errors_name_the_file_and_row(tmp_path, text, message):
    path = tmp_path / "samples.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FileFormatError) as raised:
        read_samples_csv(str(path))
    assert str(raised.value) == f"{path}: {message}"


@pytest.mark.parametrize("header", ["x1,x2,label\n", ""], ids=["header", "no-header"])
def test_csv_with_a_byte_order_mark_keeps_its_first_sample(tmp_path, header):
    path = tmp_path / "samples.csv"
    path.write_text(header + "0.1,0.2,1\n0.3,0.4,0\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_samples_csv(str(path)) == ([[0.1, 0.2], [0.3, 0.4]], [True, False])


@pytest.mark.parametrize("threshold", [True, False, "0.5", None, math.nan, 1.5, -0.1],
                         ids=["true", "false", "string", "none", "nan", "above", "below"])
def test_train_config_requires_a_real_threshold_in_the_unit_interval(threshold):
    with pytest.raises(ValueError) as info:
        TrainConfig(0.1, threshold)
    assert str(info.value) == f"retrain_error_threshold must be in [0,1], got {threshold!r}"
    assert TrainConfig(0.1, 0).retrain_error_threshold == 0
    assert TrainConfig(0.1, np.float64(1.0)).retrain_error_threshold == 1.0


def test_train_config_threshold_message_shows_a_string_as_a_string():
    with pytest.raises(ValueError) as info:
        TrainConfig(0.1, "0.5")
    assert str(info.value) == "retrain_error_threshold must be in [0,1], got '0.5'"
    for threshold, text in [(1.5, "1.5"), (2, "2"), (-0.1, "-0.1"), (math.inf, "inf")]:
        with pytest.raises(ValueError) as info:
            TrainConfig(0.1, threshold)
        assert str(info.value) == f"retrain_error_threshold must be in [0,1], got {text}"


# -- serialization ---------------------------------------------------------------------


def test_model_json_round_trip():
    model = two_rule_model("product")
    data = model_to_json_dict(model)
    assert model_from_json_dict(data) == model


def test_csv_round_trip(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("x1,x2,label\n0.1,0.9,1\n0.8,0.2,0\n", encoding="utf-8")
    X, labels = read_samples_csv(str(path))
    assert X == [[0.1, 0.9], [0.8, 0.2]]
    assert labels == [True, False]


def test_csv_skips_blank_rows_but_counts_them(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("x1,x2,label\n0.1,0.9,1\n\n , ,\n0.8,0.2,0\n", encoding="utf-8")
    assert read_samples_csv(str(path)) == ([[0.1, 0.9], [0.8, 0.2]], [True, False])
    path.write_text("x1,label\n\n0.5\n", encoding="utf-8")
    with pytest.raises(FileFormatError) as raised:
        read_samples_csv(str(path))
    assert str(raised.value) == f"{path}: row 3: need at least one input and a label"


@pytest.mark.parametrize("header", ["x1,x2,label\n", ""], ids=["header", "no-header"])
def test_csv_header_may_follow_blank_rows(tmp_path, header):
    path = tmp_path / "samples.csv"
    path.write_text(f"\n ,\n{header}0.1,0.9,1\n0.8,0.2,0\n", encoding="utf-8")
    assert read_samples_csv(str(path)) == ([[0.1, 0.9], [0.8, 0.2]], [True, False])
    path.write_text(f"\n{header}0.1,0.9,1\nx,0.2,0\n", encoding="utf-8")
    with pytest.raises(FileFormatError) as raised:
        read_samples_csv(str(path))
    assert str(raised.value) == f"{path}: row {4 if header else 3}: non-numeric value"


def test_uniform_model_covers_the_unit_box():
    rng = random.Random(113)
    model = uniform_model(2, 3)
    for _ in range(200):
        predict(model, [rng.random(), rng.random()])  # must not raise


# -- array layers against the scalar definitions ----------------------------------


def scalar_predict(model, x):
    """Layers 1-5 rule by rule from TriangularMf.membership and Rule.output."""
    x = [float(v) for v in x]
    firing = []
    for rule in model.rules:
        degrees = [mf.membership(v) for mf, v in zip(rule.antecedents, x)]
        w = min(degrees) if model.and_op == "min" else math.prod(degrees)
        firing.append(w)
    total = ltr_sum(firing)
    if total <= 0.0:
        return None
    normalized = [w / total for w in firing]
    outputs = [rule.output(x) for rule in model.rules]
    return ltr_sum(nw * f for nw, f in zip(normalized, outputs)), firing, normalized, outputs


def bits(values):
    """Exact float identity, -0.0 told from 0.0."""
    return [float(v).hex() for v in values]


def random_model(rng, dim, and_op):
    """Random triangles (shoulders, spikes and shared breakpoints included)
    and random consequents, some of them 0.0 or -0.0."""
    pool = [0.0, 0.25, 0.5, 0.75, 1.0]

    def mf():
        kind = rng.random()
        if kind < 0.2:
            return TriangularMf(*sorted(rng.sample(pool, 3)))
        a, b, c = sorted(rng.random() for _ in range(3))
        if kind < 0.3:
            return TriangularMf(a, a, c)
        if kind < 0.4:
            return TriangularMf(a, c, c)
        if kind < 0.45:
            return TriangularMf(b, b, b)
        return TriangularMf(a, b, c)

    def coefficient():
        return rng.choice([-0.0, 0.0]) if rng.random() < 0.3 else rng.uniform(-2, 2)

    shared = [mf() for _ in range(3)]
    rules = tuple(
        Rule(
            tuple(rng.choice(shared) if rng.random() < 0.5 else mf() for _ in range(dim)),
            tuple(coefficient() for _ in range(dim + 1)),
        )
        for _ in range(rng.randint(1, 12))
    )
    return AnfisModel(rules, dim, and_op)


def random_input(rng, dim):
    return [rng.choice([0.0, 0.25, 0.5, 1.0]) if rng.random() < 0.2 else rng.random()
            for _ in range(dim)]


@pytest.mark.parametrize("and_op", ["min", "product"])
@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_predict_matches_the_scalar_definitions_bit_for_bit(dim, and_op):
    rng = random.Random(f"scalar-predict/{dim}/{and_op}")
    fired = 0
    for _ in range(40):
        model = random_model(rng, dim, and_op)
        for _ in range(10):
            x = random_input(rng, dim)
            expected = scalar_predict(model, x)
            if expected is None:
                with pytest.raises(NoRuleFiresError):
                    predict(model, x)
                continue
            fired += 1
            pred = predict(model, x)
            assert bits([pred.output]) == bits(expected[:1])
            assert bits(pred.firing) == bits(expected[1])
            assert bits(pred.normalized) == bits(expected[2])
            assert bits(pred.rule_outputs) == bits(expected[3])
    assert fired > 40


@pytest.mark.parametrize("and_op", ["min", "product"])
def test_lms_and_ls_match_the_scalar_definitions_bit_for_bit(and_op):
    rng = random.Random(f"scalar-fit/{and_op}")
    for dim in (1, 2, 4):
        model = uniform_model(dim, 3, and_op)
        model = AnfisModel(
            tuple(Rule(r.antecedents, tuple(rng.uniform(-1, 1) for _ in range(dim + 1)))
                  for r in model.rules),
            dim,
            and_op,
        )
        X = [random_input(rng, dim) for _ in range(30)]
        Y = [rng.random() for _ in X]
        # lms_update: c(i,0) += mu*e*nw_i, c(i,k) += mu*e*nw_i*x_k, rule by rule.
        for x, y in zip(X[:5], Y):
            output, _, normalized, _ = scalar_predict(model, x)
            e = y - output
            expected = []
            for rule, nw in zip(model.rules, normalized):
                coeffs = list(rule.consequent)
                coeffs[0] += 0.3 * e * nw
                for k, v in enumerate(x):
                    coeffs[k + 1] += 0.3 * e * nw * v
                expected += coeffs
            got = lms_update(model, x, y, 0.3)
            assert bits(c for r in got.rules for c in r.consequent) == bits(expected)
        # ls_fit: the design matrix row by row, then the same lstsq call.
        rows = np.zeros((len(X), len(model.rules) * (dim + 1)))
        for i, x in enumerate(X):
            normalized = scalar_predict(model, x)[2]
            for r, nw in enumerate(normalized):
                for k, v in enumerate([1.0, *x]):
                    rows[i, r * (dim + 1) + k] = nw * v
        expected, *_ = np.linalg.lstsq(rows, np.array(Y), rcond=None)
        got = ls_fit(model, X, Y)
        assert bits(c for r in got.rules for c in r.consequent) == bits(expected)


@pytest.mark.parametrize("and_op", ["min", "product"])
def test_hot_path_never_evaluates_rule_objects(monkeypatch, and_op):
    """predict, lms_update, ls_fit and run_harness run on the rule arrays, not
    through TriangularMf.membership or Rule.output."""
    rng = random.Random(f"guard/{and_op}")
    update = uniform_model(3, 3, and_op)
    leave = lms_update(update, [0.2, 0.4, 0.6], 1.0, 0.5)  # not sharing consequents
    X = [random_input(rng, 3) for _ in range(60)]
    labels = [sum(x) > 1.5 for x in X]
    periods, period_labels = split_periods(X, labels, 10)
    tc = TrainConfig(mu=0.1, retrain_error_threshold=0.3)

    def outputs():
        result = run_harness(update, leave, periods, period_labels, tc)
        preds = [predict(result.update_model, x) for x in X[:5]]
        fitted = ls_fit(leave, X, [float(y) for y in labels])
        stepped = lms_update(leave, X[0], 0.7, 0.2)
        return (result.error_rates, result.update_model, result.leave_model,
                [(p.output, p.firing, p.normalized, p.rule_outputs) for p in preds],
                fitted, stepped)

    expected = outputs()

    def scalar(*args):
        raise AssertionError("scalar rule evaluation called")

    monkeypatch.setattr(TriangularMf, "membership", scalar)
    monkeypatch.setattr(Rule, "output", scalar)
    assert outputs() == expected


def test_derived_models_build_rules_only_when_read():
    model = uniform_model(2, 3)
    stepped = lms_update(model, [0.3, 0.6], 1.0, 0.5)
    result = run_harness(model, model, [[[0.1, 0.2], [0.7, 0.9]]], [[True, False]],
                         TrainConfig(mu=0.1, retrain_error_threshold=0.0))
    for derived in (stepped, ls_fit(model, [[0.1, 0.2]], [1.0]), result.update_model):
        assert "rules" not in vars(derived)
        eager = AnfisModel(derived.rules, derived.dim, derived.and_op)
        assert "rules" in vars(derived)
        assert derived == eager and hash(derived) == hash(eager)
        assert repr(derived) == repr(eager)
        assert model_to_json_dict(derived) == model_to_json_dict(eager)
    with pytest.raises(AttributeError, match="^cannot assign to field 'dim'$"):
        stepped.dim = 3
    assert model != stepped and model == uniform_model(2, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_are_rejected(bad):
    model = uniform_model(2, 3)
    x = [0.5, bad]
    for call in (
        lambda: predict(model, x),
        lambda: lms_update(model, x, 1.0, 0.1),
        lambda: ls_fit(model, [[0.2, 0.3], x], [1.0, 0.0]),
        lambda: run_harness(model, model, [[[0.2, 0.3], x]], [[True, False]], TrainConfig(0.1)),
    ):
        with pytest.raises(ValueError, match=r"^input \[0\.5, -?(nan|inf)\] is not finite$"):
            call()


def test_a_bad_sample_after_good_ones_is_named():
    model = uniform_model(2, 3)
    good = [[0.2, 0.3], [0.9, 0.1]]
    cases = [
        ([*good, [0.5], [0.5, math.nan]], DimensionMismatchError, "expected 2 inputs, got 1"),
        ([*good, [0.5, 0.5, 0.5]], DimensionMismatchError, "expected 2 inputs, got 3"),
        ([*good, [0.5, 0.25], [math.inf, 0.5], [0.5]], ValueError, "input [inf, 0.5] is not finite"),
        ([*good, ["0.5", "nan"]], ValueError, "input [0.5, nan] is not finite"),
        ([*good, [0.5, "x"]], ValueError, "could not convert string to float: 'x'"),
        ([*good, [0.5, 1j]], TypeError,
         "float() argument must be a string or a real number, not 'complex'"),
        ([*good, [1.5, 0.5], [0.5, 0.5]], NoRuleFiresError, "input [1.5, 0.5] fires no rule"),
    ]
    for xs, kind, message in cases:
        with pytest.raises(kind) as raised:
            ls_fit(model, xs, [1.0] * len(xs))
        assert type(raised.value) is kind and str(raised.value) == message
        with pytest.raises(kind) as raised:
            run_harness(model, model, [good, xs], [[True, False], [True] * len(xs)],
                        TrainConfig(0.1))
        assert type(raised.value) is kind and str(raised.value) == message


def test_samples_of_any_number_type_fit_as_floats():
    model = uniform_model(2, 3)
    xs = [[0.2, 0.3], [0.9, 0.1], [0.5, 0.75], [0.0, 1.0]]
    ys = [1.0, 0.0, 0.5, 0.25]
    want = ls_fit(model, xs, ys)._coef.tobytes()
    for same in (
        np.array(xs), np.array(xs, dtype=object), [tuple(x) for x in xs],
        [(v for v in x) for x in xs], [[str(v) for v in x] for x in xs],
        [[np.float64(v) for v in x] for x in xs], [xs[0], xs[1], xs[2], [0, 1]],
        [xs[0], xs[1], xs[2], [False, True]],
    ):
        assert ls_fit(model, same, ys)._coef.tobytes() == want


def test_csv_rejects_non_finite_values_by_row(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("x1,x2,label\n0.1,0.9,1\nnan,0.5,1\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match=r"row 3: NaN or infinite value$"):
        read_samples_csv(str(path))


@pytest.mark.parametrize("spoil", [
    lambda d: d.__setitem__("dim", 1.7),
    lambda d: d.__setitem__("dim", True),
    lambda d: d["rules"][0]["antecedents"][0].__setitem__(0, "0"),
    lambda d: d["rules"][0]["consequent"].__setitem__(1, True),
    lambda d: d["rules"][0]["consequent"].__setitem__(1, math.inf),
])
def test_model_json_numbers_are_strict(spoil):
    # One input, so that dim 1.7 or true would coerce to a valid 1.
    data = model_to_json_dict(uniform_model(1, 2))
    assert model_from_json_dict(data) == uniform_model(1, 2)
    spoil(data)
    with pytest.raises(FileFormatError, match=r"^model: "):
        model_from_json_dict(data)


@pytest.mark.parametrize("spoil, message", [
    (lambda d: d.__setitem__("rules", {"a": d["rules"][0]}), "rules: expected a list, got dict"),
    (lambda d: d.__setitem__("rules", 5), "rules: expected a list, got int"),
    (lambda d: d["rules"][1].__setitem__("antecedents", {"x": [0.0, 0.5, 1.0]}),
     "rules[1].antecedents: expected a list, got dict"),
    (lambda d: d["rules"][0].__setitem__("consequent", {"0": 0.0, "1": 0.0}),
     "rules[0].consequent: expected a list, got dict"),
    (lambda d: d["rules"][0].__setitem__("consequent", "00"),
     "rules[0].consequent: expected a list, got str"),
    (lambda d: d["rules"][1]["antecedents"].__setitem__(0, {"a": 0.0, "b": 0.5, "c": 1.0}),
     "rules[1].antecedents[0]: expected a list, got dict"),
    (lambda d: d["rules"][0]["antecedents"].__setitem__(0, 5),
     "rules[0].antecedents[0]: expected a list, got int"),
    (lambda d: d["rules"][0]["antecedents"][0].pop(), "rules[0].antecedents[0]: expected 3 "
     "breakpoints, got 2"),
    (lambda d: d.__setitem__("and_op", 5), "and_op: expected a string, got 5"),
    (lambda d: d["rules"][1]["antecedents"][0].__setitem__(2, "x"),
     "rules[1].antecedents[0][2]: expected a number, got 'x'"),
    (lambda d: d["rules"][1]["consequent"].__setitem__(1, None),
     "rules[1].consequent[1]: expected a number, got None"),
    (lambda d: d["rules"][1]["antecedents"].__setitem__(0, [0.5, 0.2, 1.0]),
     "rules[1].antecedents[0]: breakpoints out of order: (0.5, 0.2, 1.0)"),
    (lambda d: d["rules"][1]["consequent"].pop(),
     "rules[1]: rule with 1 antecedents needs 2 consequent coefficients"),
    (lambda d: d["rules"][1].__setitem__("weight", 1.0), "rules[1]: unknown keys ['weight']"),
    (lambda d: d["rules"].__setitem__(1, [0.0]), "rules[1]: expected an object, got list"),
], ids=["rules-object", "rules-number", "antecedents-object", "consequent-object",
        "consequent-string", "triple-object", "triple-number", "triple-short", "and-op-number",
        "breakpoint-string", "coefficient-null", "breakpoints-order", "consequent-short",
        "rule-key", "rule-list"])
def test_model_json_lists_are_strict(spoil, message):
    data = model_to_json_dict(uniform_model(1, 2))
    spoil(data)
    with pytest.raises(FileFormatError) as raised:
        model_from_json_dict(data)
    assert str(raised.value) == f"model: {message}"


def test_array_inputs_are_accepted_like_lists():
    model = uniform_model(2, 3)
    X = [[0.1, 0.2], [0.3, 0.9], [0.5, 0.5]]
    Y = [1.0, 0.0, 1.0]
    assert ls_fit(model, np.array(X), np.array(Y)) == ls_fit(model, X, Y)
    tc = TrainConfig(mu=0.1, retrain_error_threshold=0.0)
    by_array = run_harness(model, model, [np.array(X)], [np.array([True, False, True])], tc)
    by_list = run_harness(model, model, [X], [[True, False, True]], tc)
    assert by_array == by_list
