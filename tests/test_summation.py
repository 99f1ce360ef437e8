"""Sums over floats do not depend on the Python version.

CPython 3.12 made the built-in ``sum`` of floats compensated (Neumaier
summation), which rounds differently from adding left to right as earlier
versions do.  The frozen digests were written by left-to-right sums, so
``anfis``, ``solver`` and ``flowgraph`` add explicitly and must give the same
bits whatever ``sum`` does.  These tests rebind ``sum`` in those modules to a
compensated sum and check the ANFIS digests and the flow-graph solver's
``solve/`` and ``fig1/`` digests again.
"""

import json
import math

import pytest

from fuzzydfa import anfis, flowgraph, solver
import test_anfis_golden as anfis_golden
import test_lcm_golden as lcm_golden


def compensated_sum(values, start=0):
    """Neumaier summation, as the built-in ``sum`` of floats does from
    CPython 3.12 on."""
    total, compensation = start, 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


@pytest.fixture
def compensated(monkeypatch):
    for module in (anfis, solver, flowgraph):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_compensated_sum_differs_from_left_to_right_addition():
    values = [1.0, 1e100, 1.0, -1e100]
    assert sum(values) == 0.0 and compensated_sum(values) == 2.0
    assert compensated_sum([0.1] * 10) == 1.0 != sum([0.1] * 10)


def test_anfis_digests_do_not_depend_on_sum(compensated):
    golden = json.loads(anfis_golden.GOLDEN.read_text())
    digests = {f"harness/{name}": anfis_golden.harness_digest(name) for name in anfis_golden.HARNESS}
    digests.update({f"predict/{name}": anfis_golden.predict_digest(name)
                    for name in anfis_golden.PREDICT})
    assert [name for name, digest in digests.items() if golden[name] != digest] == []


def test_solve_digests_do_not_depend_on_sum(compensated):
    golden = json.loads(lcm_golden.GOLDEN.read_text())
    names = [name for name in lcm_golden.CASES if name.startswith(("solve/", "fig1/"))]
    assert len(names) > 200
    changed = [name for name in names
               if lcm_golden.report_digest(lcm_golden.CASES[name]) != golden[name]]
    assert changed == []
