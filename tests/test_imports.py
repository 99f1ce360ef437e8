"""What each start-up loads, and the package's lazy exports.

``import fuzzydfa`` loads no submodule; the command line imports per
command, so ``solve`` and graph ``validate`` never load numpy, ``lcm`` loads
none of the flow-graph stack and the ANFIS commands load neither.  A crisp
``lcm`` run, and ``validate`` on any LCM file, load no numpy either:
``import fuzzydfa.lcm`` alone loads none, rows are checked in plain Python,
and only fuzzy and interval runs load the array engine, ``fuzzydfa._soft``.
These commands also run, and print the frozen bytes, where numpy cannot be
imported at all, as ``solve`` under Frank and nilpotent, whose T-norm formulas
the array engine shares, prints what it prints with numpy; the commands that
need numpy end there with one ``error:`` line.  No command loads
``dataclasses``, and those that need no numpy load no ``inspect`` either
(numpy imports it).  Only a soft ``lcm`` report loads ``_digits``, the report
writer's numpy batch, and only with enough soft floats, as both bundled ones
have.  Each case runs in a fresh interpreter, since this one has imported
everything.
"""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzydfa
from test_cli_golden import _run

SRC = Path(fuzzydfa.__file__).resolve().parents[1]
ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "demos" / "data"

# Prints the exit code of ``cli.main(argv)`` (None for an import alone), its
# stderr and the fuzzydfa submodules, numpy, dataclasses and inspect that the
# run loaded.
_CHILD = """
import contextlib, importlib, io, json, sys
sys.path.insert(0, {src!r})
argv = {argv!r}
importlib.import_module({module!r})
code, err = None, io.StringIO()
if argv is not None:
    from fuzzydfa.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
loaded = [m for m in sys.modules
          if m in ("numpy", "dataclasses", "inspect") or m.startswith("fuzzydfa.")]
print(json.dumps({{"code": code, "stderr": err.getvalue(), "loaded": sorted(loaded)}}))
"""


def _loaded(argv, module="fuzzydfa", code=0, stderr=""):
    """What the run loaded, once it has exited with ``code`` and printed ``stderr``."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD.format(src=str(SRC), argv=argv, module=module)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["code"] in (None, code) and result["stderr"] == stderr, argv
    return {name.removeprefix("fuzzydfa.") for name in result["loaded"]}


GRAPH_STACK = {"solver", "flowgraph", "formula"}
# fig1 oscillates under the discontinuous nilpotent T-norm: solve exits 2 at --max-iters.
NILPOTENT = ["--logic", "nilpotent", "--max-iters", "6"]
NO_ARRAYS = {"numpy", "inspect", "_soft", "_digits", "anfis"} | GRAPH_STACK
COMMANDS = {
    # The benchmark's six commands.
    "solve": (["solve", "fig1.json"], {"numpy", "inspect", "_digits", "lcm", "anfis"}),
    "validate": (["validate", "fig1.json"], {"numpy", "inspect", "_digits", "lcm", "anfis"}),
    "lcm_fuzzy": (["lcm", "diffpcm_t1.json", "--mode", "fuzzy"], {"anfis"} | GRAPH_STACK),
    "lcm_crisp": (["lcm", "diffpcm_t1.json", "--mode", "crisp"], NO_ARRAYS),
    "lcm_interval": (["lcm", "diffpcm_t2.json"], {"anfis"} | GRAPH_STACK),
    "anfis_train": (["anfis-train", "anfis_models.json", "anfis_samples.csv", "--mu", "0.05",
                     "--period-length", "25"], {"_digits", "lcm"} | GRAPH_STACK),
    # The other commands and file kinds.
    "anfis_predict": (["anfis-predict", "anfis_two_rule.json", "--input", "0.6,0.2"],
                      {"_digits", "lcm"} | GRAPH_STACK),
    "lcm_crisp_pretty": (["lcm", "diffpcm_t1.json", "--mode", "crisp", "--pretty"], NO_ARRAYS),
    "lcm_crisp_file": (["lcm", "crisp_t1.json"], NO_ARRAYS),
    "validate_lcm": (["validate", "diffpcm_t1.json"], NO_ARRAYS),  # every row is 0 or 1
    "validate_crisp_lcm": (["validate", "crisp_t1.json"], NO_ARRAYS),
    "validate_interval_lcm": (["validate", "diffpcm_t2.json"], NO_ARRAYS),
    "validate_model": (["validate", "anfis_two_rule.json"], {"_digits", "lcm"} | GRAPH_STACK),
    # The T-norm formulas the array engine shares, run on floats.
    "solve_frank": (["solve", "fig1.json", "--logic", "frank:2"], {"numpy", "inspect", "_digits", "lcm", "anfis"}),
    "solve_nilpotent": (["solve", "fig1.json", *NILPOTENT], {"numpy", "inspect", "_digits", "lcm", "anfis"}),
}


def t1_copy(directory: Path, mode: str, soft: bool = False) -> Path:
    """``diffpcm_t1.json`` in ``mode``, with one entry 0.5 if ``soft``, written
    in ``directory`` as ``{mode}_t1.json`` or ``{mode}_soft_t1.json``."""
    data = json.loads((DATA / "diffpcm_t1.json").read_text(encoding="utf-8"))
    if soft:
        data["dee"]["B4"][2] = 0.5
    path = directory / f"{mode}{'_soft' * soft}_t1.json"
    path.write_text(json.dumps({**data, "mode": mode}, indent=2), encoding="utf-8")
    return path


def test_bare_import_loads_no_submodule_and_no_numpy():
    assert _loaded(None) == set()


def test_importing_lcm_loads_no_numpy():
    assert _loaded(None, "fuzzydfa.lcm") == {"_jsonio", "lcm", "truth"}


@pytest.mark.parametrize("name", COMMANDS)
def test_each_command_loads_only_what_it_runs(name, tmp_path):
    argv, forbidden = COMMANDS[name]
    crisp = t1_copy(tmp_path, "crisp")
    argv = [str(crisp) if a == crisp.name else str(DATA / a) if a.endswith((".json", ".csv"))
            else a for a in argv]
    loaded = _loaded(argv, code=2 if name == "solve_nilpotent" else 0)
    assert "cli" in loaded
    forbidden = forbidden | {"dataclasses"}
    assert not loaded & forbidden, f"{name} loaded {sorted(loaded & forbidden)}"


@pytest.mark.parametrize("command, mode, code, stderr", [
    ("validate", "fuzzy", 0, ""),
    ("lcm", "crisp", 1, "error: dee['B4'][2]: crisp mode needs 0 or 1, got 0.5\n"),
])
def test_a_soft_entry_loads_no_arrays(tmp_path, command, mode, code, stderr):
    loaded = _loaded([command, str(t1_copy(tmp_path, mode, soft=True))], code=code, stderr=stderr)
    assert not loaded & NO_ARRAYS, sorted(loaded & NO_ARRAYS)


# Runs ``cli.main(argv)`` as a program where ``import numpy`` fails.
_BLOCKED = """
import sys
sys.modules["numpy"] = None  # import numpy raises ImportError
sys.path.insert(0, {src!r})
from fuzzydfa.cli import main
sys.exit(main({argv!r}))
"""
NEEDS_NUMPY = {
    "lcm_fuzzy": ["lcm", "diffpcm_t1.json", "--mode", "fuzzy"],
    "lcm_interval": ["lcm", "diffpcm_t2.json"],
    "anfis_predict": ["anfis-predict", "anfis_two_rule.json", "--input", "0.6,0.2"],
    "anfis_train": ["anfis-train", "anfis_models.json", "anfis_samples.csv", "--mu", "0.05"],
}


@pytest.mark.parametrize("name", NEEDS_NUMPY)
def test_commands_that_need_numpy_end_in_one_error_line_without_it(name):
    argv = [str(DATA / a) if a.endswith((".json", ".csv")) else a for a in NEEDS_NUMPY[name]]
    proc = subprocess.run([sys.executable, "-c", _BLOCKED.format(src=str(SRC), argv=argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert re.fullmatch(r"error: [^\n]*numpy[^\n]*\n", proc.stderr), proc.stderr


# Runs where ``import numpy`` fails: prints the digest of each command's
# [exit code, stdout, stderr], as ``test_cli_golden`` takes it, after a crisp
# round trip through the library.
_NO_NUMPY = """
import contextlib, hashlib, io, json, os, sys
sys.modules["numpy"] = None  # import numpy raises ImportError
sys.path.insert(0, {src!r})
os.chdir({root!r})
from fuzzydfa import _jsonio, lcm
from fuzzydfa.cli import main

problem, _ = lcm.load_problem_file("demos/data/diffpcm_t1.json")
result = lcm.lcm_pipeline(problem, "crisp")
report = result.to_json_dict()
for name in ("av_out", "an_in", "an_out", "later_in", "delete"):
    assert dict(getattr(result, name)) == report[name], name
for name in ("earliest", "later_out", "insert"):
    rows = {{(row["from"], row["to"]): row["values"] for row in report[name]}}
    assert dict(getattr(result, name)) == rows, name
assert result == lcm.lcm_pipeline(problem, "crisp")
assert lcm.validate_problem(problem, "fuzzy") == []  # its held 0/1 rows need no array
assert problem.dee["B4"][5] == 1.0 and lcm.validate_problem(problem, "crisp") == []
assert _jsonio.dumps(report).startswith('{{"mode": "crisp"')

digests = {{}}
for name, argv in {commands!r}.items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    output = json.dumps([code, out.getvalue(), err.getvalue()])
    digests[name] = hashlib.sha256(output.encode("utf-8")).hexdigest()
print(json.dumps(digests))
"""
NO_NUMPY_COMMANDS = {
    "cli/lcm_crisp": ["lcm", "demos/data/diffpcm_t1.json", "--mode", "crisp"],
    "cli/lcm_pretty_diffpcm_t1_crisp": ["lcm", "demos/data/diffpcm_t1.json", "--pretty", "--mode",
                                        "crisp"],
    "cli/validate_t1": ["validate", "demos/data/diffpcm_t1.json"],
    "cli/validate_t2": ["validate", "demos/data/diffpcm_t2.json"],
    "cli/solve": ["solve", "demos/data/fig1.json"],
    "cli/validate": ["validate", "demos/data/fig1.json"],
}


# Frank's and nilpotent's T-norms on floats, whose formula the array engine
# runs on numpy: no digest is frozen for them, so they must print here what
# they print with numpy.
FLOAT_TNORM_COMMANDS = {
    "solve_frank": ["solve", "demos/data/fig1.json", "--logic", "frank:2"],
    "solve_nilpotent": ["solve", "demos/data/fig1.json", *NILPOTENT],
}


def test_crisp_commands_print_their_frozen_bytes_without_numpy():
    commands = NO_NUMPY_COMMANDS | FLOAT_TNORM_COMMANDS
    code = _NO_NUMPY.format(src=str(SRC), root=str(ROOT), commands=commands)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    golden = json.loads((ROOT / "tests" / "cli_golden.json").read_text(encoding="utf-8"))
    for name, argv in FLOAT_TNORM_COMMANDS.items():
        output = json.dumps(_run(argv, ROOT))
        golden[name] = hashlib.sha256(output.encode("utf-8")).hexdigest()
    assert json.loads(proc.stdout) == {name: golden[name] for name in commands}


# -- the package API -----------------------------------------------------------------


def test_every_export_is_the_submodules_object():
    for name in fuzzydfa.__all__:
        module = getattr(fuzzydfa, fuzzydfa._SOURCE[name])
        assert getattr(fuzzydfa, name) is getattr(module, name), name
    assert fuzzydfa.SolverConfig is fuzzydfa.solver.SolverConfig is fuzzydfa.lcm.SolverConfig
    assert fuzzydfa.lcm.MODES == ("crisp", "fuzzy", "interval")


def test_dir_lists_the_exports_and_submodules():
    listed = dir(fuzzydfa)
    assert set(fuzzydfa.__all__) <= set(listed)
    assert {"truth", "formula", "flowgraph", "solver", "lcm", "anfis", "cli"} <= set(listed)
    assert "__version__" in listed


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from fuzzydfa import *", namespace)
    assert set(fuzzydfa.__all__) <= namespace.keys()
    assert namespace["lcm_pipeline"] is fuzzydfa.lcm.lcm_pipeline


@pytest.mark.parametrize("module", ["truth", "formula", "flowgraph", "solver", "lcm", "anfis",
                                    "_jsonio", "cli"])
def test_submodule_star_import_binds_every_name_in_its_all(module):
    namespace: dict = {}
    exec(f"from fuzzydfa.{module} import *", namespace)  # a stale __all__ entry raises here
    assert set(getattr(fuzzydfa, module).__all__) <= namespace.keys()


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match=r"module 'fuzzydfa' has no attribute 'bogus'"):
        fuzzydfa.bogus  # noqa: B018
    with pytest.raises(ImportError):
        exec("from fuzzydfa import bogus", {})


def test_submodules_resolve_as_attributes_before_any_import():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import fuzzydfa\n"
        "assert 'fuzzydfa.solver' not in sys.modules\n"
        "solver = fuzzydfa.solver\n"
        "assert solver is sys.modules['fuzzydfa.solver']\n"
        "assert fuzzydfa.SolverConfig is solver.SolverConfig\n"
        "assert 'numpy' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    code = f"import sys; sys.path.insert(0, {str(SRC)!r})\n" + block
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    assert len(proc.stdout.splitlines()) == 2
