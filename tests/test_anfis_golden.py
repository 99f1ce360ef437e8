"""Bit-for-bit regression corpus for the ANFIS model and harness.

Each harness case is a pair of starting models, a seeded labelled stream
and a training configuration (refit thresholds 0.3, 0.8 and 1.0, so that
some periods end in a least-squares refit and some do not); its digest is
the SHA-256 of the error rates from ``run_harness`` and the deterministic
JSON of both adapted models (``model_to_json_dict``, floats at 17
significant digits).  Each predict
case is a model and a list of inputs; its digest covers every field of
every ``Prediction`` (or the fact that no rule fired).  The digests in
``anfis_golden.json`` were frozen from the per-rule scalar evaluation that
preceded the array layout, so any change in any printed digit of any
coefficient, firing strength or error rate fails here.

Regenerate (only for a deliberate, documented output change) with::

    PYTHONPATH=src python tests/test_anfis_golden.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from fuzzydfa import _jsonio
from fuzzydfa import anfis as A
from conftest import ltr_sum

HERE = Path(__file__).resolve().parent
DATA_DIR = HERE.parents[0] / "demos" / "data"
GOLDEN = HERE / "anfis_golden.json"

PERIODS = 12
PERIOD_LENGTH = 25
FLIP_EVERY = 4
# Exact grid points hit the peak (x == b) and shoulder (x == a or c) branches.
GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def stream(seed: int, dim: int):
    """Periods of samples in [0,1]^dim, labelled by a hyperplane through the
    centre of the cube; the labels invert every FLIP_EVERY periods, so the
    error rate after a flip can reach the refit threshold."""
    rng = random.Random(f"anfis-golden/{seed}/{dim}")
    normal = [(-1.0) ** k for k in range(dim)]
    bias = -0.5 * sum(normal)
    periods, labels = [], []
    for p in range(PERIODS):
        xs, ys = [], []
        for _ in range(PERIOD_LENGTH):
            x = [rng.choice(GRID) if rng.random() < 0.2 else rng.random() for _ in range(dim)]
            above = ltr_sum(a * v for a, v in zip(normal, x)) + bias > 0.0
            xs.append(x)
            ys.append(above != ((p // FLIP_EVERY) % 2 == 1))
        periods.append(xs)
        labels.append(ys)
    return periods, labels


def random_consequents(model: A.AnfisModel, seed: str) -> A.AnfisModel:
    rng = random.Random(seed)
    rules = tuple(
        A.Rule(rule.antecedents, tuple(rng.uniform(-1.0, 1.0) for _ in rule.consequent))
        for rule in model.rules
    )
    return A.AnfisModel(rules, model.dim, model.and_op)


def jittered_model(dim: int, and_op: str, seed: str) -> A.AnfisModel:
    """A grid model over an uneven partition of [0,1] per input (which still
    covers the box), with random consequents."""
    rng = random.Random(seed)
    rules = [((), ())]
    for _ in range(dim):
        peaks = [0.0, *sorted(rng.uniform(0.1, 0.9) for _ in range(2)), 1.0]
        mfs = [
            A.TriangularMf(peaks[max(i - 1, 0)], b, peaks[min(i + 1, len(peaks) - 1)])
            for i, b in enumerate(peaks)
        ]
        rules = [(ante + (mf,), ()) for ante, _ in rules for mf in mfs]
    rules = tuple(
        A.Rule(ante, tuple(rng.uniform(-1.0, 1.0) for _ in range(dim + 1))) for ante, _ in rules
    )
    return A.AnfisModel(rules, dim, and_op)


def bundled_pair():
    data = json.loads((DATA_DIR / "anfis_models.json").read_text())
    return A.model_from_json_dict(data["update"]), A.model_from_json_dict(data["leave"])


def bundled_stream():
    X, labels = A.read_samples_csv(str(DATA_DIR / "anfis_samples.csv"))
    return A.split_periods(X, labels, 25)


def harness_cases() -> dict:
    """name -> thunk returning (update, leave, periods, labels, TrainConfig)."""
    cases = {}
    for dim in (2, 4):
        for and_op in ("min", "product"):
            for seed in range(3):
                for threshold in (0.3, 0.8, 1.0):
                    def case(dim=dim, and_op=and_op, seed=seed, threshold=threshold):
                        model = A.uniform_model(dim, 3, and_op)
                        tc = A.TrainConfig(mu=0.05, retrain_error_threshold=threshold)
                        return (model, model, *stream(seed, dim), tc)

                    cases[f"uniform{dim}/{and_op}/s{seed}/t{threshold}"] = case

                def case(dim=dim, and_op=and_op, seed=seed):
                    base = A.uniform_model(dim, 3, and_op)
                    update = random_consequents(base, f"update/{dim}/{and_op}/{seed}")
                    leave = random_consequents(base, f"leave/{dim}/{and_op}/{seed}")
                    tc = A.TrainConfig(mu=0.2, retrain_error_threshold=0.8)
                    return (update, leave, *stream(seed + 10, dim), tc)

                cases[f"random{dim}/{and_op}/s{seed}"] = case

            def case(dim=dim, and_op=and_op):
                update = jittered_model(dim, and_op, f"jitter/update/{dim}/{and_op}")
                leave = jittered_model(dim, and_op, f"jitter/leave/{dim}/{and_op}")
                tc = A.TrainConfig(mu=0.1, retrain_error_threshold=0.8)
                return (update, leave, *stream(20, dim), tc)

            cases[f"jitter{dim}/{and_op}"] = case
    for threshold in (0.8, 1.0):
        def case(threshold=threshold):
            tc = A.TrainConfig(mu=0.05, retrain_error_threshold=threshold)
            return (*bundled_pair(), *bundled_stream(), tc)

        cases[f"bundled/anfis_models/t{threshold}"] = case
    return cases


def predict_cases() -> dict:
    """name -> thunk returning (model, inputs)."""

    def points(dim, seed):
        rng = random.Random(f"anfis-golden/points/{seed}/{dim}")
        return [
            [rng.choice(GRID) if rng.random() < 0.2 else rng.random() for _ in range(dim)]
            for _ in range(60)
        ]

    cases = {}
    for and_op in ("min", "product"):
        def case(and_op=and_op):
            model = A.load_model_file(str(DATA_DIR / "anfis_two_rule.json"))
            model = A.AnfisModel(model.rules, model.dim, and_op)
            grid = [[i / 20.0, j / 20.0] for i in range(21) for j in range(21)]
            return model, grid + [[0.6, 0.2]]

        cases[f"bundled/anfis_two_rule/{and_op}"] = case
        for dim in (2, 4):
            def case(dim=dim, and_op=and_op):
                base = A.uniform_model(dim, 3, and_op)
                return random_consequents(base, f"predict/{dim}/{and_op}"), points(dim, 0)

            cases[f"random{dim}/{and_op}"] = case

            def case(dim=dim, and_op=and_op):
                return jittered_model(dim, and_op, f"jitter/predict/{dim}/{and_op}"), points(dim, 1)

            cases[f"jitter{dim}/{and_op}"] = case

    def case():
        return bundled_pair()[0], points(2, 2)

    cases["bundled/anfis_models/update"] = case
    return cases


def _digest(obj) -> str:
    return hashlib.sha256(_jsonio.dumps(obj).encode("utf-8")).hexdigest()


def harness_digest(name: str) -> str:
    result = A.run_harness(*HARNESS[name]())
    return _digest(
        {
            "error_rates": result.error_rates,
            "update": A.model_to_json_dict(result.update_model),
            "leave": A.model_to_json_dict(result.leave_model),
        }
    )


def predict_digest(name: str) -> str:
    model, inputs = PREDICT[name]()
    out = []
    for x in inputs:
        try:
            pred = A.predict(model, x)
        except A.NoRuleFiresError:
            out.append(None)
            continue
        out.append([pred.output, pred.firing, pred.normalized, pred.rule_outputs])
    return _digest(out)


HARNESS = harness_cases()
PREDICT = predict_cases()


def all_digests() -> dict:
    digests = {f"harness/{name}": harness_digest(name) for name in HARNESS}
    digests.update({f"predict/{name}": predict_digest(name) for name in PREDICT})
    return dict(sorted(digests.items()))


def test_golden_corpus_covers_every_case():
    expected = sorted([f"harness/{n}" for n in HARNESS] + [f"predict/{n}" for n in PREDICT])
    assert sorted(json.loads(GOLDEN.read_text())) == expected


def test_corpus_refits_and_leaves_rules_unfired():
    """The corpus reaches the paths it is meant to pin: least-squares refits
    in 0.3 and in 0.8 cases, none at 1.0, and inputs
    that fire no rule."""

    def refits(name):
        tc = HARNESS[name]()[-1]
        rates = A.run_harness(*HARNESS[name]()).error_rates
        return sum(rate >= tc.retrain_error_threshold for rate in rates)

    assert refits("uniform4/min/s0/t0.3") >= 2
    assert refits("uniform4/min/s1/t0.8") > 0
    assert refits("uniform4/min/s1/t1.0") == 0
    model, inputs = PREDICT["bundled/anfis_two_rule/min"]()
    fired = 0
    for x in inputs:
        try:
            A.predict(model, x)
            fired += 1
        except A.NoRuleFiresError:
            pass
    assert 0 < fired < len(inputs)


@pytest.mark.parametrize("name", sorted(HARNESS))
def test_harness_is_bit_identical_to_golden(name):
    assert harness_digest(name) == json.loads(GOLDEN.read_text())[f"harness/{name}"]


@pytest.mark.parametrize("name", sorted(PREDICT))
def test_predict_is_bit_identical_to_golden(name):
    assert predict_digest(name) == json.loads(GOLDEN.read_text())[f"predict/{name}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_anfis_golden.py --write")
    digests = all_digests()
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
