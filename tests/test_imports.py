"""What each start-up loads, and the package's lazy exports.

``import fuzzydfa`` loads no submodule; the command line imports per
command, so ``solve`` and graph ``validate`` never load numpy, ``lcm`` loads
none of the flow-graph stack and the ANFIS commands load neither.  No
command loads ``dataclasses``, and ``solve`` and graph ``validate`` load no
``inspect`` either (numpy imports it, so the other commands do).  Each case
runs in a fresh interpreter, since this one has imported everything.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzydfa

SRC = Path(fuzzydfa.__file__).resolve().parents[1]
ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "demos" / "data"

# Prints the exit code of ``cli.main(argv)`` (None for a bare import) and
# the fuzzydfa submodules, numpy, dataclasses and inspect that the run loaded.
_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
argv = {argv!r}
import fuzzydfa
code = None
if argv is not None:
    from fuzzydfa.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
loaded = [m for m in sys.modules
          if m in ("numpy", "dataclasses", "inspect") or m.startswith("fuzzydfa.")]
print(json.dumps({{"code": code, "loaded": sorted(loaded)}}))
"""


def _loaded(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD.format(src=str(SRC), argv=argv)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["code"] in (None, 0), argv
    return {name.removeprefix("fuzzydfa.") for name in result["loaded"]}


GRAPH_STACK = {"solver", "flowgraph", "formula"}
COMMANDS = {
    # The benchmark's six commands.
    "solve": (["solve", "fig1.json"], {"numpy", "inspect", "lcm", "anfis"}),
    "validate": (["validate", "fig1.json"], {"numpy", "inspect", "lcm", "anfis"}),
    "lcm_fuzzy": (["lcm", "diffpcm_t1.json", "--mode", "fuzzy"], {"anfis"} | GRAPH_STACK),
    "lcm_crisp": (["lcm", "diffpcm_t1.json", "--mode", "crisp"], {"anfis"} | GRAPH_STACK),
    "lcm_interval": (["lcm", "diffpcm_t2.json"], {"anfis"} | GRAPH_STACK),
    "anfis_train": (["anfis-train", "anfis_models.json", "anfis_samples.csv", "--mu", "0.05",
                     "--period-length", "25"], {"lcm"} | GRAPH_STACK),
    # The other commands and file kinds.
    "anfis_predict": (["anfis-predict", "anfis_two_rule.json", "--input", "0.6,0.2"],
                      {"lcm"} | GRAPH_STACK),
    "validate_lcm": (["validate", "diffpcm_t1.json"], {"anfis"} | GRAPH_STACK),
    "validate_model": (["validate", "anfis_two_rule.json"], {"lcm"} | GRAPH_STACK),
}


def test_bare_import_loads_no_submodule_and_no_numpy():
    assert _loaded(None) == set()


@pytest.mark.parametrize("name", COMMANDS)
def test_each_command_loads_only_what_it_runs(name):
    argv, forbidden = COMMANDS[name]
    argv = [str(DATA / a) if a.endswith((".json", ".csv")) else a for a in argv]
    loaded = _loaded(argv)
    assert "cli" in loaded
    forbidden = forbidden | {"dataclasses"}
    assert not loaded & forbidden, f"{name} loaded {sorted(loaded & forbidden)}"


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
