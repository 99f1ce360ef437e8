import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import fuzzydfa
from fuzzydfa import SolverConfig, uniform_model
from fuzzydfa.anfis import model_to_json_dict
from fuzzydfa.cli import _build_parser, main
from fuzzydfa._jsonio import dumps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_fig1(data_dir, capsys):
    code, out, _ = run(capsys, "solve", str(data_dir / "fig1.json"), "--epsilon", "1e-6")
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert report["final"]["B1"]["Out"] == pytest.approx(9 / 19, abs=1e-4)
    assert report["final"]["B3"]["Out"] == pytest.approx(9 / 19, abs=1e-4)
    assert len(report["residual_trace"]) == report["iterations"]


def test_solve_is_byte_deterministic(data_dir, capsys):
    _, first, _ = run(capsys, "solve", str(data_dir / "fig1.json"))
    _, second, _ = run(capsys, "solve", str(data_dir / "fig1.json"))
    assert first == second


def test_solve_seed_trace_has_decreasing_tail(data_dir, capsys):
    code, out, _ = run(capsys, "solve", str(data_dir / "fig1.json"), "--seed-trace")
    assert code == 0
    report_line, trace_line = out.strip().split("\n")
    trace = json.loads(trace_line)
    assert trace == json.loads(report_line)["residual_trace"]
    assert all(trace[i] < trace[i - 1] for i in range(2, len(trace)))


def test_solve_trace_file(data_dir, capsys, tmp_path):
    path = tmp_path / "trace.json"
    code, out, _ = run(capsys, "solve", str(data_dir / "fig1.json"), "--trace", str(path))
    assert code == 0
    trace = json.loads(path.read_text())
    assert trace == json.loads(out)["residual_trace"]


def test_solve_reports_nonconvergence_with_exit_2(tmp_path, capsys):
    problem = {
        "logic": "minmax",
        "start": "s",
        "seed": {"s": {"Out": 0.0}},
        "nodes": [
            {"id": "s", "transfer": {"Out": "0.0"}},
            {"id": "a", "transfer": {"Out": "!In"}},
            {"id": "b", "transfer": {"Out": "In"}},
        ],
        "edges": [
            {"from": "b", "to": "a", "alpha": 1.0},
            {"from": "a", "to": "b", "alpha": 1.0},
        ],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "solve", str(path), "--max-iters", "25")
    assert code == 2
    assert json.loads(out)["converged"] is False


def test_solve_interval_mode_graph(tmp_path, capsys):
    problem = {
        "logic": "minmax",
        "mode": "interval",
        "start": "s",
        "seed": {"s": {"Out": [0.2, 0.4]}},
        "nodes": [
            {"id": "s", "transfer": {"Out": "0.0"}},
            {"id": "a", "transfer": {"Out": "In | 0.3"}},
            {"id": "b", "transfer": {"Out": "!In"}},
        ],
        "edges": [
            {"from": "s", "to": "a", "alpha": 1.0},
            {"from": "a", "to": "b", "alpha": 1.0},
        ],
    }
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    report = json.loads(out)
    lo, hi = report["final"]["b"]["Out"]
    assert lo == pytest.approx(0.6)  # complement of [0.3, 0.4]
    assert hi == pytest.approx(0.7)


def test_validate_ok(data_dir, capsys):
    for name in ("fig1.json", "diffpcm_t1.json", "diffpcm_t2.json"):
        code, out, _ = run(capsys, "validate", str(data_dir / name))
        assert code == 0
        assert out.strip() == "ok"


def test_validate_accepts_the_anfis_train_model_pair(data_dir, capsys):
    code, out, err = run(capsys, "validate", str(data_dir / "anfis_models.json"))
    assert (code, out, err) == (0, "ok\n", "")


@pytest.mark.parametrize("spoil, message", [
    (lambda pair: pair.pop("leave"), "models: missing keys ['leave']"),
    (lambda pair: pair.pop("update"), "models: missing keys ['update']"),
    (lambda pair: pair.update(extra=1), "models: unknown keys ['extra']"),
    (lambda pair: pair["leave"].update(dim=True), "leave: dim: expected an integer, got True"),
    (lambda pair: pair.update(update=[]), "update: expected an object, got list"),
    (lambda pair: pair["leave"]["rules"][1]["consequent"].__setitem__(0, "x"),
     "leave: rules[1].consequent[0]: expected a number, got 'x'"),
    (lambda pair: pair["update"].update(dim=1),
     "update: rules[0] has 2 antecedents, model dim is 1"),
    (lambda pair: pair.update(leave=model_to_json_dict(uniform_model(3, 2))),
     "models: update has dim 2 but leave has dim 3"),
], ids=["no-leave", "no-update", "extra-key", "bad-leave", "update-list", "leave-coefficient",
        "update-dim", "dim-mismatch"])
def test_validate_rejects_a_broken_pair_as_anfis_train_does(data_dir, tmp_path, capsys, spoil,
                                                           message):
    pair = json.loads((data_dir / "anfis_models.json").read_text())
    spoil(pair)
    path = tmp_path / "models.json"
    path.write_text(json.dumps(pair))
    validate = run(capsys, "validate", str(path))
    train = run(capsys, "anfis-train", str(path), str(data_dir / "anfis_samples.csv"),
                "--mu", "0.1")
    assert validate == train == (1, "", f"error: {message}\n")


def test_anfis_train_with_an_overflowing_step_warns_nothing(data_dir, capsys):
    # With mu 1e308 the LMS steps overflow to inf and then make nan, which the
    # harness expects: the rates are the ones it gave when numpy warned.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "anfis-train", str(data_dir / "anfis_models.json"),
                             str(data_dir / "anfis_samples.csv"), "--mu", "1e308")
    rates = ("1, 0.040000000000000001, 0.95999999999999996, 0, 0, 0, 0.52000000000000002, 1, "
             "0.52000000000000002, 1")
    assert (code, out, err) == (0, '{"error_rates": [' + rates + "]}\n", "")


def test_validate_rejects_bad_weights(tmp_path, capsys):
    problem = {
        "start": "a",
        "seed": {"a": {"Out": 0.0}},
        "nodes": [
            {"id": "a", "transfer": {"Out": "0.0"}},
            {"id": "b", "transfer": {"Out": "In"}},
        ],
        "edges": [{"from": "a", "to": "b", "alpha": 0.25}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(problem))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "weights" in err


def test_validate_reports_json_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"start": "a",\n  "nodes": [}')
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "2:" in err


BOM_COMMANDS = [
    ["lcm", "diffpcm_t1.json", "--mode", "crisp"],
    ["lcm", "diffpcm_t1.json", "--mode", "crisp", "--pretty"],
    ["lcm", "diffpcm_t2.json"],
    ["solve", "fig1.json"],
    ["validate", "fig1.json"],
    ["validate", "diffpcm_t1.json"],
    ["validate", "anfis_models.json"],
    ["anfis-predict", "anfis_two_rule.json", "--input", "0.6,0.2"],
]


@pytest.mark.parametrize("argv", BOM_COMMANDS, ids=" ".join)
def test_a_byte_order_mark_changes_no_output(data_dir, tmp_path, capsys, argv):
    command, name, *options = argv
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + (data_dir / name).read_bytes())
    expected = run(capsys, command, str(data_dir / name), *options)
    assert expected[0] == 0
    assert run(capsys, command, str(marked), *options) == expected


@pytest.mark.parametrize("command", ["lcm", "solve", "validate"])
@pytest.mark.parametrize("name, old, new, key", [
    ("diffpcm_t1.json", '"entry": "B0",', '"entry": "B0", "entry": "B5",', "entry"),
    ("diffpcm_t1.json", '"alpha": 0.001,', '"alpha": 0.001, "alpha": 0.5,', "alpha"),
    ("fig1.json", '"start": "B0",', '"start": "B0", "start": "B1",', "start"),
])
def test_a_repeated_key_is_rejected(data_dir, tmp_path, capsys, command, name, old, new, key):
    """Not resolved to its last value: ``"entry": "B0", "entry": "B5"`` would
    run from B5 and report faults the file does not have."""
    text = (data_dir / name).read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / name
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert run(capsys, command, str(path)) == (1, "", f"error: {path}: duplicate key {key!r}\n")


def test_unknown_key_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"start": "a", "nodes": [], "edges": [], "extra": 1}))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert "extra" in err


def test_lcm_fuzzy_headline(data_dir, capsys):
    code, out, _ = run(capsys, "lcm", str(data_dir / "diffpcm_t1.json"), "--mode", "fuzzy")
    assert code == 0
    report = json.loads(out)
    transform = report["exprs"].index("Transform(b)")
    assert report["delete"]["B4"][transform] == pytest.approx(0.998, abs=0.005)
    inserts = {(row["from"], row["to"]): row["values"] for row in report["insert"]}
    assert inserts[("B0", "B1")][transform] == pytest.approx(0.998, abs=0.005)


def test_lcm_crisp_is_all_zero(data_dir, capsys):
    code, out, _ = run(capsys, "lcm", str(data_dir / "diffpcm_t1.json"), "--mode", "crisp")
    assert code == 0
    report = json.loads(out)
    assert all(v == 0.0 for row in report["insert"] for v in row["values"])
    assert all(v == 0.0 for row in report["delete"].values() for v in row)


def test_lcm_interval_mode(data_dir, capsys):
    code, out, _ = run(capsys, "lcm", str(data_dir / "diffpcm_t2.json"))
    assert code == 0
    report = json.loads(out)
    increate = report["exprs"].index("IncRate(i)")
    lo, hi = report["delete"]["B4"][increate]
    assert lo == pytest.approx(0.002, abs=0.005)
    assert hi == pytest.approx(0.999, abs=0.005)


def test_lcm_pretty_lists_plausible_motions(data_dir, capsys):
    code, out, _ = run(capsys, "lcm", str(data_dir / "diffpcm_t1.json"), "--pretty")
    assert code == 0
    assert "plausible motions" in out
    assert "Transform(b)" in out


def test_lcm_pretty_lists_the_motions_at_the_threshold(data_dir, capsys):
    code, out, err = run(capsys, "lcm", str(data_dir / "diffpcm_t1.json"), "--pretty",
                         "--motion-threshold", "0.5")
    assert (code, err) == (0, "")
    assert out.split("plausible motions (>= 0.5):\n")[1] == (
        "  insert 'Transform(b)' on B0->B1 (0.998)\n"
        "  insert 'Transform(b)' on B3->B4 (0.998)\n"
        "  delete 'Transform(b)' from B4 (0.998)\n")


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.5", "1.5"])
def test_motion_thresholds_outside_the_unit_interval_are_rejected(data_dir, capsys, threshold):
    code, out, err = run(capsys, "lcm", str(data_dir / "diffpcm_t1.json"), "--pretty",
                         "--motion-threshold", threshold)
    message = f"--motion-threshold must be in [0,1], got {float(threshold)!r}"
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_anfis_predict_worked_example(data_dir, capsys):
    code, out, _ = run(
        capsys, "anfis-predict", str(data_dir / "anfis_two_rule.json"), "--input", "0.6,0.2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["output"] == pytest.approx(0.115, abs=1e-3)
    assert report["firing"][0] == pytest.approx(0.5, abs=1e-9)


def test_anfis_train_on_bundled_stream(data_dir, capsys):
    code, out, _ = run(
        capsys,
        "anfis-train",
        str(data_dir / "anfis_models.json"),
        str(data_dir / "anfis_samples.csv"),
        "--mu",
        "0.05",
        "--period-length",
        "25",
    )
    assert code == 0
    rates = json.loads(out)["error_rates"]
    assert len(rates) == 10
    assert rates[-1] <= rates[0]


def test_anfis_train_threshold_defaults_to_train_configs(data_dir, capsys):
    argv = ["anfis-train", str(data_dir / "anfis_models.json"),
            str(data_dir / "anfis_samples.csv"), "--mu", "0.05"]
    assert _build_parser().parse_args(argv).threshold is None
    default = run(capsys, *argv)
    assert default[0] == 0
    assert run(capsys, *argv, "--threshold", "0.8") == default
    assert run(capsys, *argv, "--threshold", "0.1") != default  # the option is read


def test_anfis_train_harness(tmp_path, capsys):
    models = {
        "update": model_to_json_dict(uniform_model(1, 3)),
        "leave": model_to_json_dict(uniform_model(1, 3)),
    }
    models_path = tmp_path / "models.json"
    models_path.write_text(dumps(models))
    rows = ["x1,label"]
    for i in range(100):
        x = (i % 20) / 20.0
        rows.append(f"{x},{1 if x > 0.5 else 0}")
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(rows) + "\n")
    csv_out = tmp_path / "rates.csv"
    code, out, _ = run(
        capsys,
        "anfis-train",
        str(models_path),
        str(data_path),
        "--mu",
        "0.1",
        "--period-length",
        "20",
        "--csv-out",
        str(csv_out),
        "--save-models",
        str(tmp_path / "trained.json"),
    )
    assert code == 0
    rates = json.loads(out)["error_rates"]
    assert len(rates) == 5
    assert rates[-1] <= rates[0]
    assert csv_out.read_text().startswith("period,error_rate")
    trained = json.loads((tmp_path / "trained.json").read_text())
    assert set(trained) == {"update", "leave"}


def test_missing_file_is_exit_1(capsys):
    code, _, err = run(capsys, "solve", "no-such-file.json")
    assert code == 1
    assert err


def _spoiled(data_dir, tmp_path, name, spoil):
    data = json.loads((data_dir / name).read_text())
    spoil(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _with_settings(data_dir, tmp_path, name, **settings):
    return _spoiled(data_dir, tmp_path, name, lambda data: data.update(settings))


@pytest.mark.parametrize("command, name", [("solve", "fig1.json"), ("lcm", "diffpcm_t1.json")])
@pytest.mark.parametrize(
    "settings, message",
    [
        ({"epsilon": 0}, "epsilon must be > 0"),
        ({"max_iters": 0}, "max_iters must be >= 1"),
        ({"max_iters": 2.7}, "max_iters: expected an integer, got 2.7"),
        ({"max_iters": True}, "max_iters: expected an integer, got True"),
        ({"epsilon": "1e-6"}, "epsilon: expected a number"),
    ],
    ids=["epsilon-0", "max_iters-0", "max_iters-fraction", "max_iters-bool", "epsilon-string"],
)
def test_bad_file_settings_are_rejected_not_defaulted(
    data_dir, tmp_path, capsys, command, name, settings, message
):
    path = _with_settings(data_dir, tmp_path, name, **settings)
    code, out, err = run(capsys, command, path)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command, name", [("solve", "fig1.json"), ("lcm", "diffpcm_t1.json")])
@pytest.mark.parametrize("epsilon", ["inf", "nan", "0"])
def test_epsilon_options_that_are_not_finite_and_positive_are_rejected(data_dir, capsys, command,
                                                                       name, epsilon):
    code, out, err = run(capsys, command, str(data_dir / name), "--epsilon", epsilon)
    message = f"epsilon must be > 0 and finite, got {float(epsilon)!r}"
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("mu", ["inf", "nan", "0", "-0.5"])
def test_mu_options_that_are_not_finite_and_positive_are_rejected(data_dir, capsys, mu):
    code, out, err = run(capsys, "anfis-train", str(data_dir / "anfis_models.json"),
                         str(data_dir / "anfis_samples.csv"), "--mu", mu)
    assert (code, out, err) == (1, "", f"error: mu must be > 0 and finite, got {float(mu)!r}\n")


def test_lcm_honours_file_settings(data_dir, tmp_path, capsys):
    path = _with_settings(data_dir, tmp_path, "diffpcm_t1.json", max_iters=3, epsilon=0.5)
    _, expected, _ = run(capsys, "lcm", str(data_dir / "diffpcm_t1.json"),
                         "--max-iters", "3", "--epsilon", "0.5")
    code, out, _ = run(capsys, "lcm", path)
    assert out == expected
    _, loose, _ = run(capsys, "lcm", path, "--epsilon", "1e-6")
    assert loose != out  # the option overrides the file


@pytest.mark.parametrize("name", ["diffpcm_t1.json", "diffpcm_t2.json"])
def test_lcm_that_does_not_converge_prints_its_report_and_exits_2(data_dir, capsys, name):
    code, out, err = run(capsys, "lcm", str(data_dir / name), "--logic", "product",
                         "--max-iters", "40")
    assert (code, err) == (2, "")
    assert out.endswith('"converged": false}\n')
    assert json.loads(out)["converged"] is False


def _set_alpha(value, key="alpha", edge=0):
    return lambda data: data["edges"][edge].__setitem__(key, value)


MALFORMED_ALPHAS = [
    (_set_alpha(None), "edges[0].alpha: expected a number, got None"),
    (_set_alpha([0.5]), "edges[0].alpha: expected a number, got [0.5]"),
    (_set_alpha("1"), "edges[0].alpha: expected a number, got '1'"),
    (_set_alpha(True), "edges[0].alpha: expected a number, got True"),
]
MALFORMED_ALPHA_IDS = ["alpha-null", "alpha-list", "alpha-string", "alpha-bool"]
# Names are strings in the file; a number is not turned into one.
MALFORMED_ENDPOINTS = [
    (_set_alpha(1, "from"), "edges[0].from: expected a string, got 1"),
    (_set_alpha(["B1"], "to"), "edges[0].to: expected a string, got ['B1']"),
]
# The same checks on a later edge: its index is in the message.
MALFORMED_LATER_EDGES = [
    (_set_alpha(None, edge=3), "edges[3].alpha: expected a number, got None"),
    (_set_alpha(1.5, edge=3), "edges[3]: not a truth value in [0,1]: 1.5"),
    (_set_alpha(7, "to", edge=3), "edges[3].to: expected a string, got 7"),
    (_set_alpha(1, "weight", edge=3), "edges[3]: unknown keys ['weight']"),
    (lambda data: data["edges"][3].pop("alpha"), "edges[3]: missing keys ['alpha']"),
    (lambda data: data["edges"][3].__setitem__("weight", data["edges"][3].pop("alpha")),
     "edges[3]: missing keys ['alpha']"),
    (lambda data: data["edges"].__setitem__(3, 5), "edges[3]: expected an object, got int"),
]
MALFORMED_LATER_EDGE_IDS = ["edge3-alpha-null", "edge3-alpha-range", "edge3-to-int",
                            "edge3-unknown-key", "edge3-missing-key", "edge3-renamed-key",
                            "edge3-int"]
# Edges are a list; an object, even of valid edges, is not read as one.
EDGES_AS_OBJECTS = [
    (lambda data: data.__setitem__("edges", {}), "edges: expected a list, got dict"),
    (lambda data: data.__setitem__("edges", {"e": data["edges"][0]}),
     "edges: expected a list, got dict"),
]
EDGES_AS_OBJECT_IDS = ["edges-empty-object", "edges-object"]
MALFORMED_PROBLEMS = MALFORMED_ALPHAS + [
    (_set_alpha("1", "alpha_back"), "edges[0].alpha_back: expected a number, got '1'"),
    (lambda data: data.__setitem__("blocks", 5), "blocks: expected a list, got int"),
    (lambda data: data.__setitem__("exprs", 7), "exprs: expected a list, got int"),
    (lambda data: data.__setitem__("edges", None), "edges: expected a list, got NoneType"),
    *EDGES_AS_OBJECTS,
    *MALFORMED_ENDPOINTS,
    (lambda data: data["exprs"].__setitem__(0, 1), "exprs[0]: expected a string, got 1"),
    (lambda data: data["blocks"].__setitem__(1, 2.0), "blocks[1]: expected a string, got 2.0"),
    (lambda data: data.__setitem__("entry", 0), "entry: expected a string, got 0"),
    (lambda data: data.__setitem__("exit", None), "exit: expected a string, got None"),
    *MALFORMED_LATER_EDGES,
    (lambda data: data["blocks"].__setitem__(4, None), "blocks[4]: expected a string, got None"),
    (lambda data: data["exprs"].__setitem__(3, 3.5), "exprs[3]: expected a string, got 3.5"),
]
MALFORMED_GRAPHS = MALFORMED_ALPHAS + [
    (lambda data: data.__setitem__("nodes", 3), "nodes: expected a list, got int"),
    (lambda data: data.__setitem__("edges", None), "edges: expected a list, got NoneType"),
    *EDGES_AS_OBJECTS,
    (lambda data: data.__setitem__("seed", [1]), "seed: expected an object, got list"),
    *MALFORMED_ENDPOINTS,
    (lambda data: data["nodes"][0].__setitem__("id", 0), "nodes[0].id: expected a string, got 0"),
    (lambda data: data.__setitem__("start", 0), "start: expected a string, got 0"),
    (lambda data: data["nodes"][2]["transfer"].__setitem__("Out", 0.5),
     "nodes[2].transfer['Out']: expected a string, got 0.5"),
    *MALFORMED_LATER_EDGES,
]
MALFORMED_ENDPOINT_IDS = ["from-int", "to-list"]


@pytest.mark.parametrize("spoil, message", MALFORMED_PROBLEMS, ids=MALFORMED_ALPHA_IDS + [
    "alpha_back-string", "blocks-int", "exprs-int", "edges-null", *EDGES_AS_OBJECT_IDS, *MALFORMED_ENDPOINT_IDS,
    "expr-int", "block-float", "entry-int", "exit-null", *MALFORMED_LATER_EDGE_IDS, "block4-null",
    "expr3-float"])
def test_malformed_problem_files_are_format_errors(data_dir, tmp_path, capsys, spoil, message):
    path = _spoiled(data_dir, tmp_path, "diffpcm_t1.json", spoil)
    for command in ("lcm", "validate"):
        code, out, err = run(capsys, command, path)
        assert (code, out, err) == (1, "", f"error: {message}\n"), command


@pytest.mark.parametrize("spoil, message", MALFORMED_GRAPHS, ids=MALFORMED_ALPHA_IDS + [
    "nodes-int", "edges-null", *EDGES_AS_OBJECT_IDS, "seed-list", *MALFORMED_ENDPOINT_IDS, "node-id-int", "start-int",
    "transfer-number", *MALFORMED_LATER_EDGE_IDS])
def test_malformed_graph_files_are_format_errors(data_dir, tmp_path, capsys, spoil, message):
    path = _spoiled(data_dir, tmp_path, "fig1.json", spoil)
    for command in ("solve", "validate"):
        code, out, err = run(capsys, command, path)
        assert (code, out, err) == (1, "", f"error: {message}\n"), command


def test_lcm_on_a_single_block_file(tmp_path, capsys):
    """One block, both entry and exit: no edges, so no merge has an input."""
    path = tmp_path / "single.json"
    rows = {name: {"only": [1.0, 0.0]} for name in ("dee", "uee", "kill")}
    path.write_text(json.dumps({"entry": "only", "exit": "only", "blocks": ["only"],
                                "edges": [], "exprs": ["a", "b"], **rows}))
    for mode in ("crisp", "fuzzy", "interval"):
        code, out, err = run(capsys, "lcm", str(path), "--mode", mode)
        assert code == 0, err
        report = json.loads(out)
        assert report["earliest"] == report["later_out"] == report["insert"] == []
        one, zero = ([1.0, 1.0], [0.0, 0.0]) if mode == "interval" else (1.0, 0.0)
        assert report["av_out"] == report["an_out"] == {"only": [one, zero]}
        assert report["an_in"] == report["later_in"] == report["delete"] == {"only": [zero, zero]}
        code, out, err = run(capsys, "lcm", str(path), "--mode", mode, "--pretty")
        assert code == 0, err


@pytest.mark.parametrize("invalid", [False, True])
def test_lcm_validates_the_problem_once(data_dir, tmp_path, capsys, monkeypatch, invalid):
    from fuzzydfa import lcm

    data = json.loads((data_dir / "diffpcm_t1.json").read_text())
    if invalid:
        data["edges"][0]["alpha"] = 0.5  # forward weights into B1 no longer sum to 1
        data["dee"]["B1"][0] = 0.5  # not 0 or 1, which crisp mode needs
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    problem, _ = lcm.load_problem_file(str(path))
    expected = lcm.validate_problem(problem, "crisp")
    assert len(expected) == (2 if invalid else 0)
    calls = []

    def counted(*args):
        calls.append(args)
        return validate(*args)

    validate = lcm._validate  # what the pipeline calls for its errors and row arrays
    monkeypatch.setattr(lcm, "_validate", counted)
    code, out, err = run(capsys, "lcm", str(path), "--mode", "crisp")
    assert len(calls) == 1
    if invalid:
        assert (code, out) == (1, "")
        assert err == "".join(f"error: {e}\n" for e in expected)
        assert err.startswith("error: forward weights into 'B1' sum to")
    else:
        assert code == 0 and err == ""


def test_lcm_crisp_reports_are_exact_under_frank(data_dir, capsys):
    for logic in ("frank:0.01", "frank:0.001"):
        code, out, _ = run(capsys, "lcm", str(data_dir / "diffpcm_t1.json"),
                           "--mode", "crisp", "--logic", logic)
        assert code == 0
        report = json.loads(out)
        for name in ("av_out", "an_in", "an_out", "later_in", "delete"):
            assert all(v in (0.0, 1.0) for row in report[name].values() for v in row), name
        for name in ("earliest", "later_out", "insert"):
            assert all(v in (0.0, 1.0) for row in report[name] for v in row["values"]), name


def test_frank_parameter_below_the_range_is_exit_1(data_dir, capsys):
    code, out, err = run(capsys, "lcm", str(data_dir / "diffpcm_t1.json"), "--logic", "frank:1e-17")
    assert code == 1
    assert out == ""
    assert "frank parameter must be finite, >= 2**-28" in err
    assert "math domain error" not in err


@pytest.mark.parametrize("vector", ["nan,0.5", "0.5,inf", "-inf,0.2"])
def test_anfis_predict_rejects_non_finite_input(data_dir, capsys, vector):
    code, out, err = run(capsys, "anfis-predict", str(data_dir / "anfis_two_rule.json"),
                         f"--input={vector}")
    assert code == 1
    assert out == ""
    assert err == f"error: input {[float(v) for v in vector.split(',')]!r} is not finite\n"


def test_anfis_predict_outside_every_rule_is_exit_1(data_dir, capsys):
    code, out, err = run(capsys, "anfis-predict", str(data_dir / "anfis_two_rule.json"),
                         "--input", "5,5")
    assert code == 1
    assert out == ""
    assert err == "error: input [5.0, 5.0] fires no rule\n"


@pytest.mark.parametrize("row", ["nan,0.5,1", "0.2,inf,0", "0.2,0.5,nan"])
def test_anfis_train_names_a_non_finite_csv_row(data_dir, tmp_path, capsys, row):
    data_path = tmp_path / "data.csv"
    data_path.write_text(f"x1,x2,label\n0.1,0.9,1\n{row}\n")
    code, out, err = run(
        capsys, "anfis-train", str(data_dir / "anfis_models.json"), str(data_path), "--mu", "0.1"
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {data_path}: row 3: NaN or infinite value\n"


BAD_MODEL_NUMBERS = [
    (lambda m: m.__setitem__("dim", 1.7), "dim: expected an integer, got 1.7"),
    (lambda m: m.__setitem__("dim", True), "dim: expected an integer, got True"),
    (lambda m: m.__setitem__("dim", "2"), "dim: expected an integer, got '2'"),
    (lambda m: m["rules"][0]["antecedents"][0].__setitem__(1, "0.5"),
     "rules[0].antecedents[0][1]: expected a number, got '0.5'"),
    (lambda m: m["rules"][1]["antecedents"][1].__setitem__(2, True),
     "rules[1].antecedents[1][2]: expected a number, got True"),
    (lambda m: m["rules"][0]["consequent"].__setitem__(0, "0.5"),
     "rules[0].consequent[0]: expected a number, got '0.5'"),
    (lambda m: m["rules"][1]["consequent"].__setitem__(2, False),
     "rules[1].consequent[2]: expected a number, got False"),
    (lambda m: m["rules"][1]["consequent"].__setitem__(2, float("nan")),
     "rules[1].consequent[2]: expected a finite number, got nan"),
]
BAD_MODEL_IDS = ["dim-fraction", "dim-bool", "dim-string", "breakpoint-string", "breakpoint-bool",
                 "coefficient-string", "coefficient-bool", "coefficient-nan"]


@pytest.mark.parametrize("spoil, message", BAD_MODEL_NUMBERS, ids=BAD_MODEL_IDS)
def test_model_files_reject_coerced_numbers(data_dir, tmp_path, capsys, spoil, message):
    model = json.loads((data_dir / "anfis_two_rule.json").read_text())
    spoil(model)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    pair = tmp_path / "models.json"
    pair.write_text(json.dumps({"update": model, "leave": model}))
    for argv, name in (
        (["validate", str(path)], "model"),
        (["anfis-predict", str(path), "--input", "0.6,0.2"], "model"),
        (["anfis-train", str(pair), str(data_dir / "anfis_samples.csv"), "--mu", "0.1"], "update"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: {name}: {message}\n", argv


@pytest.mark.parametrize("pair, message", [
    (["0.2", True], "[0]: expected a number, got '0.2'"),
    ([0.2, True], "[1]: expected a number, got True"),
    ([None, 0.5], "[0]: expected a number, got None"),
])
def test_interval_rows_reject_coerced_ends(data_dir, tmp_path, capsys, pair, message):
    problem = json.loads((data_dir / "diffpcm_t2.json").read_text())
    problem["dee"]["B1"][2] = pair
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(problem))
    for command in ("validate", "lcm"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, ""), command
        assert err == f"error: dee['B1'][2]{message}\n", command


def _set_entry(matrix, block, k, value):
    return lambda data: data[matrix][block].__setitem__(k, value)


def _crisp(spoil):
    return lambda data: (spoil(data), data.__setitem__("mode", "crisp"))


# Rows are accepted in bulk and walked only when that check fails; the walk
# names the entry, so a bad row at a later block reads as it always did.
BAD_ROWS = [
    ("diffpcm_t1.json", _set_entry("uee", "B3", 2, True),
     "uee['B3'][2]: expected a number, got True"),
    ("diffpcm_t1.json", _set_entry("uee", "B3", 2, "0.5"),
     "uee['B3'][2]: expected a number, got '0.5'"),
    ("diffpcm_t1.json", _set_entry("uee", "B3", 2, None),
     "uee['B3'][2]: expected a number, got None"),
    ("diffpcm_t1.json", _crisp(_set_entry("kill", "B4", 3, 0.5)),
     "kill['B4'][3]: crisp mode needs 0 or 1, got 0.5"),
    ("diffpcm_t1.json", _set_entry("dee", "B3", 1, [0.2, 0.4]),
     "dee['B3'][1]: expected a number, got [0.2, 0.4]"),
    ("diffpcm_t2.json", _set_entry("dee", "B3", 1, [0.6, 0.4]),
     "dee['B3'][1]: interval endpoints out of order: [0.6, 0.4]"),
    ("diffpcm_t1.json", _set_entry("uee", "B3", 4, 1.5),
     "uee['B3'][4]: not a truth value in [0,1]: 1.5"),
    ("diffpcm_t2.json", _set_entry("uee", "B3", 4, 1.5),
     "uee['B3'][4]: not a truth value in [0,1]: 1.5"),
    ("diffpcm_t1.json", _set_entry("uee", "B3", 6, float("nan")),
     "uee['B3'][6]: not a truth value in [0,1]: nan"),
    ("diffpcm_t2.json", _set_entry("uee", "B3", 6, [0.2, float("nan")]),
     "uee['B3'][6]: not a truth value in [0,1]: nan"),
    ("diffpcm_t2.json", _set_entry("uee", "B3", 6, [0.2, 0.3, 0.4]),
     "uee['B3'][6]: expected a number or a [lo, hi] pair, got [0.2, 0.3, 0.4]"),
    ("diffpcm_t1.json", lambda data: data["kill"]["B3"].pop(),
     "kill['B3']: expected 7 entries, got 6"),
    ("diffpcm_t1.json", lambda data: data["kill"].__setitem__("B9", [0.0] * 7),
     "kill: row for unknown block 'B9'"),
    ("diffpcm_t1.json", lambda data: data["uee"].__setitem__("B3", 0.5),
     "uee['B3']: expected a list, got float"),
    ("diffpcm_t1.json", lambda data: data.__setitem__("dee", [0.0]),
     "dee: expected an object of block rows"),
]
BAD_ROW_IDS = ["bool", "string", "null", "crisp-half", "pair-in-fuzzy", "reversed-pair",
               "fuzzy-1.5", "interval-1.5", "fuzzy-nan", "interval-nan", "triple",
               "short-row", "unknown-block", "row-not-a-list", "dee-not-an-object"]


@pytest.mark.parametrize("name, spoil, message", BAD_ROWS, ids=BAD_ROW_IDS)
def test_bad_rows_name_the_entry(data_dir, tmp_path, capsys, name, spoil, message):
    path = _spoiled(data_dir, tmp_path, name, spoil)
    for command in ("lcm", "validate"):
        code, out, err = run(capsys, command, path)
        assert (code, out, err) == (1, "", f"error: {message}\n"), command


def test_crisp_value_errors_keep_their_order(data_dir, tmp_path, capsys):
    def spoil(data):
        data["mode"] = "crisp"
        data["kill"]["B4"][3] = 0.5
        data["dee"]["B2"][5] = 0.25
        data["dee"]["B2"][6] = 1
        data["uee"]["B1"].pop()
        data["dee"]["B5"][0] = 1.0
        data["kill"]["B4"][6] = 0.75
        data["kill"]["Z"] = [0.0]

    path = _spoiled(data_dir, tmp_path, "diffpcm_t1.json", spoil)
    expected = "".join(f"error: {m}\n" for m in [
        "dee['B2'][5]: crisp mode needs 0 or 1, got 0.25",
        "uee['B1']: expected 7 entries, got 6",
        "kill['B4'][3]: crisp mode needs 0 or 1, got 0.5",
        "kill['B4'][6]: crisp mode needs 0 or 1, got 0.75",
        "kill: row for unknown block 'Z'",
    ])
    for command in ("lcm", "validate"):
        assert run(capsys, command, path) == (1, "", expected), command
    code, out, err = run(capsys, "lcm", str(data_dir / "diffpcm_t1.json"), "--mode", "crisp")
    assert code == 0 and err == ""
    path = _spoiled(data_dir, tmp_path, "diffpcm_t1.json", _set_entry("kill", "B4", 3, 0.5))
    code, out, err = run(capsys, "lcm", path, "--mode", "crisp")
    assert (code, out, err) == (1, "", "error: kill['B4'][3]: crisp mode needs 0 or 1, got 0.5\n")


def test_solve_on_an_invalid_graph_prints_warnings_then_errors(data_dir, tmp_path, capsys):
    graph = json.loads((data_dir / "fig1.json").read_text())
    graph["edges"].append({"from": "B3", "to": "zz", "alpha": 1.0})
    graph["seed"]["B1"] = {"Out": 0.5}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    assert run(capsys, "solve", str(path)) == (1, "", (
        "warning: seed for 'B1' is ignored (node has incoming edges)\n"
        "error: dangling edge B3->zz: no node 'zz'\n"))


def test_solve_pretty_prints_each_node_and_the_sweep_count(data_dir, capsys):
    assert run(capsys, "solve", str(data_dir / "fig1.json"), "--pretty") == (0, (
        "B0: Out=0.000\nB1: Out=0.474\nB2: Out=0.526\nB3: Out=0.474\n"
        "converged=True iterations=137\n"), "")


def test_anfis_predict_pretty_prints_each_rule(data_dir, capsys):
    argv = ["anfis-predict", str(data_dir / "anfis_two_rule.json"), "--input", "0.6,0.2"]
    assert run(capsys, *argv, "--pretty") == (0, (
        "output: 0.115000\n"
        "rule 1: w=0.500 w_norm=0.833 f=0.034000\n"
        "rule 2: w=0.100 w_norm=0.167 f=0.520000\n"), "")


def test_anfis_predict_rejects_a_non_numeric_input(data_dir, capsys):
    argv = ["anfis-predict", str(data_dir / "anfis_two_rule.json"), "--input", "0.6,x"]
    assert run(capsys, *argv) == (1, "", "error: bad input vector '0.6,x'\n")


@pytest.mark.parametrize("vector", ["0.5,,0.2", "0.5,,", ",0.6,0.2", "0.6,0.2,", ""])
def test_anfis_predict_rejects_an_empty_field(data_dir, capsys, vector):
    argv = ["anfis-predict", str(data_dir / "anfis_two_rule.json"), "--input", vector]
    assert run(capsys, *argv) == (1, "", f"error: bad input vector {vector!r}\n")


def test_anfis_predict_accepts_spaces_around_a_number(data_dir, capsys):
    argv = ["anfis-predict", str(data_dir / "anfis_two_rule.json"), "--input"]
    spaced = run(capsys, *argv, " 0.6 , 0.2 ")
    assert spaced[0] == 0 and spaced == run(capsys, *argv, "0.6,0.2")


def test_usage_errors_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the terminal width
    with pytest.raises(SystemExit) as raised:
        main([])
    assert raised.value.code == 1
    assert capsys.readouterr().err == (
        "usage: fuzzydfa [-h] {solve,lcm,validate,anfis-predict,anfis-train} ...\n"
        "error: the following arguments are required: command\n")


@pytest.mark.parametrize("module", ["fuzzydfa", "fuzzydfa.cli"])
def test_module_entry_points_print_what_main_prints(data_dir, capsys, module):
    argv = ["lcm", str(data_dir / "diffpcm_t1.json")]
    src = str(Path(fuzzydfa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == run(capsys, *argv)
    assert child.stdout.startswith('{"mode": "fuzzy"')


@pytest.mark.parametrize("command", ["solve", "lcm"])
def test_help_states_the_solver_config_defaults(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    defaults = SolverConfig()
    assert f"solution tolerance (default {defaults.epsilon:g})" in text
    assert f"iteration cap (default {defaults.max_iters})" in text
