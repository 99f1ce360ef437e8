"""Byte-for-byte regression corpus for ``lcm_pipeline``.

Each case is a problem, a mode, a logic family and an optional solver
configuration; its digest is the SHA-256 of the deterministic JSON report.
The digests in ``lcm_golden.json`` were frozen from the per-expression
flow-graph engine that preceded the array engine, and the ``frank<i>``
cases from the array engine while it still evaluated Frank through the
scalar ``LogicFamily.tnorm``, so any change in any printed digit of any
matrix fails here.

Regenerate (only for a deliberate, documented output change) with::

    PYTHONPATH=src python tests/test_lcm_golden.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from fuzzydfa import LogicFamily, SolverConfig, TruthInterval
from fuzzydfa import _jsonio
from fuzzydfa import lcm as L
from krs_oracle import random_crisp_problem

HERE = Path(__file__).resolve().parent
DATA_DIR = HERE.parents[0] / "demos" / "data"
GOLDEN = HERE / "lcm_golden.json"

BUNDLED_FAMILIES = ["minmax", "product", "lukasiewicz", "frank:2"]
RANDOM_FAMILIES = ["minmax", "product", "lukasiewicz", "frank:2", "frank:0.5", "nilpotent"]
RANDOM_CFGS = 20
# Frank at both ends of its range, where expm1/log1p carry the evaluation.
FRANK_FAMILIES = ["frank:0.01", "frank:100"]
FRANK_CFGS = 10


def _random_rows(rng: random.Random, problem, kind: str, ends: float = 0.0) -> None:
    """Fill the rows with ``kind`` values; with ``ends`` > 0 that share of
    the soft draws is an exact 0 or 1 instead."""

    def draw():
        if ends and rng.random() < ends:
            return float(rng.random() < 0.5)
        return rng.random()

    def cell():
        if kind == "crisp":
            return float(rng.random() < 0.4)
        if kind == "fuzzy":
            return draw()
        return TruthInterval(*sorted((draw(), draw())))

    width = len(problem.exprs)
    for name in ("dee", "uee", "kill"):
        setattr(problem, name, {b: [cell() for _ in range(width)] for b in problem.blocks})


def golden_cases() -> dict:
    """name -> (problem, mode, family, cfg)."""
    cases = {}
    for stem, modes in (("diffpcm_t1", ("crisp", "fuzzy")), ("diffpcm_t2", ("interval",))):
        problem, _ = L.load_problem_file(str(DATA_DIR / f"{stem}.json"))
        for mode in modes:
            for logic in BUNDLED_FAMILIES:
                cases[f"{stem}/{mode}/{logic}"] = (problem, mode, LogicFamily.parse(logic), None)
    for i in range(RANDOM_CFGS):
        logic = RANDOM_FAMILIES[i % len(RANDOM_FAMILIES)]
        for mode in ("crisp", "fuzzy", "interval"):
            rng = random.Random(f"golden/{i}")
            problem = random_crisp_problem(rng, max_blocks=10, max_exprs=5)
            _random_rows(random.Random(f"golden/{i}/{mode}"), problem, mode)
            family = LogicFamily.parse(logic)
            cfg = SolverConfig(family=family, max_iters=3000)
            cases[f"random{i}/{mode}/{logic}"] = (problem, mode, family, cfg)
    for i in range(FRANK_CFGS):
        for mode in ("fuzzy", "interval"):
            for logic in FRANK_FAMILIES:
                rng = random.Random(f"golden/frank/{i}")
                problem = random_crisp_problem(rng, max_blocks=12, max_exprs=6)
                _random_rows(random.Random(f"golden/frank/{i}/{mode}"), problem, mode, ends=0.3)
                family = LogicFamily.parse(logic)
                cfg = SolverConfig(family=family, max_iters=3000)
                cases[f"frank{i}/{mode}/{logic}"] = (problem, mode, family, cfg)
    for stem, mode in (("diffpcm_t1", "fuzzy"), ("diffpcm_t2", "interval")):
        problem, _ = L.load_problem_file(str(DATA_DIR / f"{stem}.json"))
        family = LogicFamily.product()
        cfg = SolverConfig(family=family, quantize_bits=20)
        cases[f"{stem}/{mode}/product/q20"] = (problem, mode, family, cfg)
        # Some columns converge within the cap and some do not.
        cfg = SolverConfig(family=family, max_iters=40)
        cases[f"{stem}/{mode}/product/cap40"] = (problem, mode, family, cfg)
    return cases


def report_digest(problem, mode, family, cfg) -> str:
    text = _jsonio.dumps(L.lcm_pipeline(problem, mode, family, cfg).to_json_dict())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CASES = golden_cases()


def test_golden_corpus_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical_to_golden(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert report_digest(*CASES[name]) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_lcm_golden.py --write")
    digests = {name: report_digest(*case) for name, case in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
