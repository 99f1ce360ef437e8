"""Byte-for-byte pins of what the command line and the demos print.

A command case runs ``fuzzydfa.cli.main`` in process, from the repository
root on the bundled files, or from a temporary directory on an invalid copy of
one; its digest is the SHA-256 of the JSON list [exit code, stdout, stderr].
A demo case runs one script of ``demos/`` and digests its stdout.  The
cases cover the six commands the benchmark times, the ``--pretty``
reports, ``validate`` on every file kind, and invalid graph and LCM files
through ``solve``, ``lcm`` and ``validate``.

Add the digests of new cases, keeping every frozen one, with::

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

from fuzzydfa.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
DATA = "demos/data/"

COMMANDS = {
    # The benchmark's six.
    "solve": ["solve", DATA + "fig1.json"],
    "lcm_fuzzy": ["lcm", DATA + "diffpcm_t1.json", "--mode", "fuzzy"],
    "lcm_crisp": ["lcm", DATA + "diffpcm_t1.json", "--mode", "crisp"],
    "lcm_interval": ["lcm", DATA + "diffpcm_t2.json"],
    "anfis_train": ["anfis-train", DATA + "anfis_models.json", DATA + "anfis_samples.csv",
                    "--mu", "0.05", "--period-length", "25"],
    "validate": ["validate", DATA + "fig1.json"],
    # Human-readable reports.
    "solve_pretty": ["solve", DATA + "fig1.json", "--pretty"],
    "solve_seed_trace": ["solve", DATA + "fig1.json", "--seed-trace"],
    "anfis_predict": ["anfis-predict", DATA + "anfis_two_rule.json", "--input", "0.6,0.2"],
    "anfis_predict_pretty": ["anfis-predict", DATA + "anfis_two_rule.json", "--input",
                             "0.6,0.2", "--pretty"],
    # validate on each file kind.
    "validate_t1": ["validate", DATA + "diffpcm_t1.json"],
    "validate_t2": ["validate", DATA + "diffpcm_t2.json"],
    "validate_model": ["validate", DATA + "anfis_two_rule.json"],
}
for stem in ("diffpcm_t1", "diffpcm_t2"):
    for name, extra in (("", []), ("_frank2", ["--logic", "frank:2"]),
                        ("_crisp", ["--mode", "crisp"])):
        COMMANDS[f"lcm_pretty_{stem}{name}"] = ["lcm", DATA + stem + ".json", "--pretty", *extra]


def _bad_graph() -> dict:
    """fig1 with a dangling edge, a seed for an unknown node and an ignored seed."""
    data = json.loads((ROOT / DATA / "fig1.json").read_text())
    data["edges"].append({"from": "B3", "to": "zz", "alpha": 1.0})
    data["seed"].update(B1={"Out": 0.5}, ghost={"Out": 0.5})
    return data


def _bad_lcm() -> dict:
    """diffpcm_t1 with a duplicate edge, a self loop and a missing exit."""
    data = json.loads((ROOT / DATA / "diffpcm_t1.json").read_text())
    data["edges"] += [dict(data["edges"][0]),
                      {"from": "B2", "to": "B2", "alpha": 0.5, "alpha_back": 0.5}]
    data["exit"] = "B9"
    return data


INVALID = {"bad_graph.json": _bad_graph, "bad_lcm.json": _bad_lcm}
INVALID_COMMANDS = {
    "solve_bad_graph": ["solve", "bad_graph.json"],
    "validate_bad_graph": ["validate", "bad_graph.json"],
    "solve_bad_lcm": ["solve", "bad_lcm.json"],
    "lcm_bad_lcm": ["lcm", "bad_lcm.json"],
    "validate_bad_lcm": ["validate", "bad_lcm.json"],
}
DEMOS = ["anfis_adaptation", "fig1_fixed_point", "interval_type2", "lcm_diffpcm"]


@contextlib.contextmanager
def _cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _run(argv: list[str], cwd) -> list:
    out, err = io.StringIO(), io.StringIO()
    with _cwd(cwd), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(), err.getvalue()]


def command_output(name: str) -> list:
    if name in COMMANDS:
        return _run(COMMANDS[name], ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for file, build in INVALID.items():
            Path(tmp, file).write_text(json.dumps(build(), indent=1))
        return _run(INVALID_COMMANDS[name], tmp)


def demo_output(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    return out.getvalue()


def cases() -> dict:
    """name -> function that builds the output to digest."""
    out = {f"cli/{name}": (lambda n=name: command_output(n))
           for name in [*COMMANDS, *INVALID_COMMANDS]}
    out.update({f"demo/{name}": (lambda n=name: demo_output(n)) for name in DEMOS})
    return out


def digest(output) -> str:
    return hashlib.sha256(json.dumps(output).encode("utf-8")).hexdigest()


CASES = cases()


def test_cli_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical_to_golden(name):
    assert digest(CASES[name]()) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    frozen = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    digests = {name: frozen.get(name) or digest(case()) for name, case in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    added = len(digests.keys() - frozen.keys())
    print(f"wrote {len(digests)} digests to {GOLDEN} ({added} new)")
