import copy
import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from fuzzydfa import (LcmEdge, LcmProblem, LogicFamily, SolverConfig, TruthInterval,
                      WidthMismatchError)
from fuzzydfa import _jsonio
from fuzzydfa import lcm as L
from krs_oracle import krs_bitvector, random_crisp_problem

MINMAX = LogicFamily.minmax()


def bits(s: str) -> list[float]:
    """Bit-string indexed high-to-low -> row list indexed 0..width-1."""
    return [float(c) for c in reversed(s)]


def diffpcm_problem(p: float = 0.999, n: float = 1000.0) -> LcmProblem:
    """The differential-PCM loop: entry B0, loop header B1, branch B2,
    update block B3, body B4, exit B5.  Forward weights come from join
    frequencies, backward weights from branch probabilities."""
    return LcmProblem(
        blocks=["B0", "B1", "B2", "B3", "B4", "B5"],
        edges=[
            LcmEdge("B0", "B1", 1.0 / n, 1.0),
            LcmEdge("B4", "B1", (n - 1.0) / n, 1.0),
            LcmEdge("B1", "B2", 1.0, (n - 1.0) / n),
            LcmEdge("B1", "B5", 1.0, 1.0 / n),
            LcmEdge("B2", "B3", 1.0, 1.0 - p),
            LcmEdge("B2", "B4", p, p),
            LcmEdge("B3", "B4", 1.0 - p, 1.0),
        ],
        exprs=["i<N", "in[i]!=b", "i+1", "A*B", "IncRate(i)", "Transform(b)", "abs(a[i]-b)"],
        dee={"B0": bits("0000000"), "B1": bits("0000001"), "B2": bits("0000010"),
             "B3": bits("0000000"), "B4": bits("0101000"), "B5": bits("0000000")},
        uee={"B0": bits("0000000"), "B1": bits("0000001"), "B2": bits("0000010"),
             "B3": bits("1000000"), "B4": bits("0110100"), "B5": bits("0000000")},
        kill={"B0": bits("1111111"), "B1": bits("0000000"), "B2": bits("0000000"),
              "B3": bits("1100010"), "B4": bits("1011111"), "B5": bits("0000000")},
        entry="B0",
        exit="B5",
    )


def fuzzy_reference(problem: LcmProblem, expr: int, eps: float = 1e-12,
                    family: LogicFamily | None = None):
    """Literal per-expression equation systems, iterated with plain loops:
    an implementation-independent cross-check of the staged pipeline.
    Without ``family`` the connectives are min, max and 1-x."""
    if family is None:
        AND, OR, NOT = min, max, lambda x: 1.0 - x
    else:
        AND, OR, NOT = family.tnorm, family.snorm, family.cnorm
    blocks = problem.blocks
    preds = {b: [(e.src, e.alpha) for e in problem.edges if e.dst == b] for b in blocks}
    succs = {b: [(e.dst, e.alpha_back) for e in problem.edges if e.src == b] for b in blocks}
    dee = {b: problem.dee[b][expr] for b in blocks}
    uee = {b: problem.uee[b][expr] for b in blocks}
    kill = {b: problem.kill[b][expr] for b in blocks}

    av = {b: 0.0 for b in blocks}
    for _ in range(1_000_000):
        drift = 0.0
        for b in blocks:
            avin = sum(a * av[w] for w, a in preds[b])
            new = OR(dee[b], AND(avin, NOT(kill[b])))
            drift += abs(new - av[b])
            av[b] = new
        if drift < eps:
            break

    an = {b: 0.0 for b in blocks}
    for _ in range(1_000_000):
        drift = 0.0
        for b in blocks:
            anin = sum(a * an[s] for s, a in succs[b])
            new = OR(uee[b], AND(anin, NOT(kill[b])))
            drift += abs(new - an[b])
            an[b] = new
        if drift < eps:
            break
    anout = {b: sum(a * an[s] for s, a in succs[b]) for b in blocks}

    ear = {}
    for e in problem.edges:
        if e.src == problem.entry:
            ear[(e.src, e.dst)] = AND(an[e.dst], NOT(av[e.src]))
        else:
            ear[(e.src, e.dst)] = AND(
                AND(an[e.dst], NOT(av[e.src])), OR(kill[e.src], NOT(anout[e.src]))
            )

    lin = {b: 0.0 for b in blocks}
    lout = {(e.src, e.dst): 0.0 for e in problem.edges}
    for _ in range(1_000_000):
        drift = 0.0
        for e in problem.edges:
            new = OR(ear[(e.src, e.dst)], AND(lin[e.src], NOT(uee[e.src])))
            drift += abs(new - lout[(e.src, e.dst)])
            lout[(e.src, e.dst)] = new
        for b in blocks:
            if b == problem.entry:
                continue
            new = sum(a * lout[(w, b)] for w, a in preds[b])
            drift += abs(new - lin[b])
            lin[b] = new
        if drift < eps:
            break

    insert = {k: AND(lout[k], NOT(lin[k[1]])) for k in lout}
    delete = {b: (0.0 if b == problem.entry else AND(uee[b], NOT(lin[b]))) for b in blocks}
    return {"av": av, "an": an, "anout": anout, "earliest": ear,
            "later_in": lin, "later_out": lout, "insert": insert, "delete": delete}


# -- fuzzy pipeline ----------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzzy_result():
    return L.lcm_pipeline(diffpcm_problem(), "fuzzy", MINMAX)


def test_fuzzy_pipeline_matches_equation_reference(fuzzy_result):
    problem = diffpcm_problem()
    for k in range(len(problem.exprs)):
        ref = fuzzy_reference(problem, k)
        for b in problem.blocks:
            assert fuzzy_result.av_out[b][k] == pytest.approx(ref["av"][b], abs=2e-5)
            assert fuzzy_result.an_out[b][k] == pytest.approx(ref["an"][b], abs=2e-5)
            assert fuzzy_result.an_in[b][k] == pytest.approx(ref["anout"][b], abs=2e-5)
            assert fuzzy_result.later_in[b][k] == pytest.approx(ref["later_in"][b], abs=2e-5)
            assert fuzzy_result.delete[b][k] == pytest.approx(ref["delete"][b], abs=2e-5)
        for key in ref["insert"]:
            assert fuzzy_result.earliest[key][k] == pytest.approx(ref["earliest"][key], abs=2e-5)
            assert fuzzy_result.insert[key][k] == pytest.approx(ref["insert"][key], abs=2e-5)


REFERENCE_FAMILIES = [MINMAX, LogicFamily.product(), LogicFamily.lukasiewicz(),
                      LogicFamily.frank(2.0)]


def soft_problem(seed: int) -> LcmProblem:
    """A random CFG with U[0,1] rows."""
    rng = random.Random(seed)
    problem = random_crisp_problem(rng)
    width = len(problem.exprs)
    for name in ("dee", "uee", "kill"):
        setattr(problem, name, {b: [rng.random() for _ in range(width)] for b in problem.blocks})
    return problem


def assert_matches_reference(result, problem, family, lift=lambda v: (v, v), tol=1e-6):
    """Every matrix of ``result`` equals the equation reference within
    ``tol``; ``lift`` maps a reported value to its (lo, hi) bounds."""
    edge_names = ("earliest", "later_out", "insert")
    block_names = (("av_out", "av"), ("an_out", "an"), ("an_in", "anout"),
                   ("later_in", "later_in"), ("delete", "delete"))
    for k in range(len(problem.exprs)):
        ref = fuzzy_reference(problem, k, family=family)
        for got, want in block_names:
            for b in problem.blocks:
                for bound in lift(getattr(result, got)[b][k]):
                    assert bound == pytest.approx(ref[want][b], abs=tol), (got, b, k)
        for name in edge_names:
            for key in ref["insert"]:
                for bound in lift(getattr(result, name)[key][k]):
                    assert bound == pytest.approx(ref[name][key], abs=tol), (name, key, k)


@pytest.mark.parametrize("family", REFERENCE_FAMILIES, ids=str)
def test_fuzzy_pipeline_matches_reference_on_random_cfgs(family):
    cfg = SolverConfig(family=family, epsilon=1e-12)
    for seed in range(12):
        problem = soft_problem(seed)
        result = L.lcm_pipeline(problem, "fuzzy", family, cfg)
        assert result.converged
        assert_matches_reference(result, problem, family)


@pytest.mark.parametrize("family", REFERENCE_FAMILIES, ids=str)
def test_interval_pipeline_on_degenerate_rows_matches_reference(family):
    cfg = SolverConfig(family=family, epsilon=1e-12)
    for seed in range(100, 106):
        problem = soft_problem(seed)
        result = L.lcm_pipeline(problem, "interval", family, cfg)
        assert result.converged
        assert_matches_reference(result, problem, family, lift=lambda v: (v.lo, v.hi))


@pytest.mark.parametrize("logic", ["frank:2", "frank:0.01"])
@pytest.mark.parametrize("mode", ["fuzzy", "interval"])
def test_frank_pipeline_never_calls_the_scalar_tnorm(monkeypatch, logic, mode):
    """The array engine evaluates Frank with array arithmetic, not through
    ``LogicFamily.tnorm`` element by element."""
    family = LogicFamily.parse(logic)
    problems = [soft_problem(seed) for seed in range(200, 204)]
    expected = [L.lcm_pipeline(p, mode, family).to_json_dict() for p in problems]

    def scalar(self, x, y):
        raise AssertionError("scalar LogicFamily.tnorm called")

    monkeypatch.setattr(LogicFamily, "tnorm", scalar)
    assert [L.lcm_pipeline(p, mode, family).to_json_dict() for p in problems] == expected


def test_fuzzy_headline_numbers(fuzzy_result):
    transform = 5  # Transform(b)
    increate = 4   # IncRate(i)
    assert fuzzy_result.delete["B4"][transform] == pytest.approx(0.998, abs=0.005)
    assert fuzzy_result.insert[("B0", "B1")][transform] == pytest.approx(0.998, abs=0.005)
    assert fuzzy_result.insert[("B3", "B4")][transform] == pytest.approx(0.998, abs=0.005)
    assert fuzzy_result.delete["B4"][increate] <= 0.01
    named = {("B0", "B1"), ("B3", "B4")}
    for key, row in fuzzy_result.insert.items():
        for k, v in enumerate(row):
            if k == transform and key in named:
                continue
            assert v <= 0.01, (key, k, v)
    for b, row in fuzzy_result.delete.items():
        for k, v in enumerate(row):
            if (b, k) == ("B4", transform):
                continue
            assert v <= 0.01, (b, k, v)
    assert fuzzy_result.converged


def test_anticipatability_diffpcm_values(fuzzy_result):
    transform = 5
    # The loop header anticipates the transform on nearly every path.
    assert fuzzy_result.an_out["B1"][transform] == pytest.approx(0.998001, abs=1e-4)
    assert fuzzy_result.an_in["B1"][transform] == pytest.approx(0.998001, abs=1e-4)
    assert fuzzy_result.an_out["B5"][transform] == 0.0
    assert fuzzy_result.an_out["B4"][transform] == pytest.approx(1.0, abs=1e-9)


def test_earliest_entry_edge_case(fuzzy_result):
    for k in range(len(fuzzy_result.exprs)):
        expected = min(fuzzy_result.an_out["B1"][k], 1.0 - fuzzy_result.av_out["B0"][k])
        assert fuzzy_result.earliest[("B0", "B1")][k] == pytest.approx(expected, abs=1e-12)


def test_delete_of_entry_block_is_zero(fuzzy_result):
    assert all(v == 0.0 for v in fuzzy_result.delete["B0"])


def test_monotone_in_branch_probability():
    transform = 5
    last = -1.0
    for p in (0.9, 0.99, 0.999):
        result = L.lcm_pipeline(diffpcm_problem(p=p), "fuzzy", MINMAX)
        value = result.delete["B4"][transform]
        assert value >= last - 1e-9
        last = value


# -- crisp pipeline -------------------------------------------------------------------


def test_crisp_diffpcm_moves_nothing():
    result = L.lcm_pipeline(diffpcm_problem(), "crisp", MINMAX)
    assert all(v == 0.0 for row in result.insert.values() for v in row)
    assert all(v == 0.0 for row in result.delete.values() for v in row)


def test_crisp_random_cfgs_match_bitvector_oracle():
    rng = random.Random(61)
    for _ in range(100):
        problem = random_crisp_problem(rng)
        assert L.validate_problem(problem, "crisp") == []
        result = L.lcm_pipeline(problem, "crisp", MINMAX)
        insert_ref, delete_ref = krs_bitvector(problem)
        for key, row in result.insert.items():
            assert {k for k, v in enumerate(row) if v} == insert_ref[key], (key, problem)
        for b, row in result.delete.items():
            assert {k for k, v in enumerate(row) if v} == delete_ref[b], (b, problem)


def test_fuzzy_on_chains_with_unit_weights_matches_crisp():
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(2, 6)
        blocks = [f"c{i}" for i in range(n)]
        edges = [LcmEdge(blocks[i], blocks[i + 1], 1.0, 1.0) for i in range(n - 1)]
        width = rng.randint(1, 4)

        def rows():
            return {b: [float(rng.random() < 0.5) for _ in range(width)] for b in blocks}

        problem = LcmProblem(blocks, edges, [f"e{k}" for k in range(width)],
                             rows(), rows(), rows(), blocks[0], blocks[-1])
        crisp = L.lcm_pipeline(problem, "crisp", MINMAX)
        fuzzy = L.lcm_pipeline(problem, "fuzzy", MINMAX)
        for key in crisp.insert:
            for a, b in zip(crisp.insert[key], fuzzy.insert[key]):
                assert b == pytest.approx(a, abs=1e-6)
        for blk in crisp.delete:
            for a, b in zip(crisp.delete[blk], fuzzy.delete[blk]):
                assert b == pytest.approx(a, abs=1e-6)


@pytest.mark.parametrize("s", [0.01, 0.001])
def test_crisp_reports_are_exact_under_any_family(s):
    family = LogicFamily.frank(s)
    assert family.tnorm(1.0, 1.0) != 1.0  # the rounding crisp mode must not inherit
    rng = random.Random(83)
    for problem in [diffpcm_problem()] + [random_crisp_problem(rng) for _ in range(20)]:
        exact = L.lcm_pipeline(problem, "crisp", MINMAX).to_json_dict()
        assert L.lcm_pipeline(problem, "crisp", family).to_json_dict() == exact


# -- stage corner cases ------------------------------------------------------------------


def single_block_problem(dee: float, uee: float = 0.0, kill: float = 0.0) -> LcmProblem:
    return LcmProblem(
        blocks=["only"],
        edges=[],
        exprs=["e"],
        dee={"only": [dee]},
        uee={"only": [uee]},
        kill={"only": [kill]},
        entry="only",
        exit="only",
    )


def test_single_block_availability_is_its_dee():
    for mode in ("fuzzy", "crisp"):
        result = L.lcm_pipeline(single_block_problem(dee=1.0), mode, MINMAX)
        assert result.av_out["only"] == [1.0]


def test_rows_outside_the_unit_interval_are_rejected():
    with pytest.raises(ValueError) as exc:
        L.lcm_pipeline(single_block_problem(dee=1.5), "fuzzy", MINMAX)
    assert exc.value.errors == ["dee['only'][0]: not a truth value in [0,1]: 1.5"]
    result = L.lcm_pipeline(single_block_problem(dee=1.0 + 1e-13), "fuzzy", MINMAX)
    assert result.av_out["only"] == [1.0]
    result = L.lcm_pipeline(single_block_problem(dee=-1e-13), "interval", MINMAX)
    assert result.to_json_dict()["av_out"]["only"] == [[0.0, 0.0]]


def test_all_kill_availability_equals_dee():
    rng = random.Random(71)
    blocks = ["x0", "x1", "x2"]
    edges = [LcmEdge("x0", "x1", 1.0, 1.0), LcmEdge("x1", "x2", 1.0, 1.0)]
    dee = {b: [rng.random() for _ in range(3)] for b in blocks}
    uee = {b: [0.0] * 3 for b in blocks}
    kill = {b: [1.0] * 3 for b in blocks}
    problem = LcmProblem(blocks, edges, ["a", "b", "c"], dee, uee, kill, "x0", "x2")
    av_out = L.lcm_pipeline(problem, "fuzzy", MINMAX).av_out
    for b in blocks:
        for got, want in zip(av_out[b], dee[b]):
            assert got == pytest.approx(want, abs=1e-9)


def test_saturated_uee_saturates_anticipatability():
    blocks = ["x0", "x1", "x2"]
    edges = [LcmEdge("x0", "x1", 1.0, 1.0), LcmEdge("x1", "x2", 1.0, 1.0)]
    ones = {b: [1.0] for b in blocks}
    zeros = {b: [0.0] for b in blocks}
    problem = LcmProblem(blocks, edges, ["e"], zeros, ones, zeros, "x0", "x2")
    an_out = L.lcm_pipeline(problem, "fuzzy", MINMAX).an_out
    assert all(an_out[b] == [1.0] for b in blocks)


def test_crisp_earliest_edge_saturates_later_out():
    problem = diffpcm_problem()
    result = L.lcm_pipeline(problem, "crisp", MINMAX)
    idle = 0  # loop-condition expression: earliest on the entry edge
    assert result.earliest[("B0", "B1")][idle] == 1.0
    assert result.later_out[("B0", "B1")][idle] == 1.0


def test_chain_with_no_earliest_keeps_later_at_zero():
    blocks = ["x0", "x1", "x2"]
    edges = [LcmEdge("x0", "x1", 1.0, 1.0), LcmEdge("x1", "x2", 1.0, 1.0)]
    zeros = {b: [0.0] for b in blocks}
    problem = LcmProblem(blocks, edges, ["e"], zeros, zeros, zeros, "x0", "x2")
    result = L.lcm_pipeline(problem, "fuzzy", MINMAX)
    for matrix in (result.earliest, result.later_out, result.later_in):
        assert all(v == 0.0 for row in matrix.values() for v in row)


def test_saturated_later_in_blocks_deletion():
    problem = LcmProblem(
        blocks=["a", "b"],
        edges=[LcmEdge("a", "b", 1.0, 1.0)],
        exprs=["e"],
        dee={"a": [0.0], "b": [0.0]},
        uee={"a": [0.0], "b": [1.0]},
        kill={"a": [0.0], "b": [0.0]},
        entry="a",
        exit="b",
    )
    result = L.lcm_pipeline(problem, "crisp", MINMAX)
    assert result.later_in["b"] == [1.0]
    assert result.later_out[("a", "b")] == [1.0]
    assert result.delete["b"] == [0.0]
    assert result.insert[("a", "b")] == [0.0]


def test_empty_expression_list_gives_empty_matrices():
    problem = LcmProblem(
        blocks=["a", "b"],
        edges=[LcmEdge("a", "b", 1.0, 1.0)],
        exprs=[],
        dee={"a": [], "b": []},
        uee={"a": [], "b": []},
        kill={"a": [], "b": []},
        entry="a",
        exit="b",
    )
    for mode in ("crisp", "fuzzy", "interval"):
        result = L.lcm_pipeline(problem, mode, MINMAX)
        assert result.insert[("a", "b")] == []
        assert result.delete["a"] == []
        assert result.converged


# -- interval mode --------------------------------------------------------------------


def interval_problem() -> LcmProblem:
    problem = diffpcm_problem()
    problem.dee["B4"] = [0.0, 0.0, 0.0, 1.0, TruthInterval(0.0, 1.0), 1.0, 0.0]
    return problem


def test_join_targets_widens_only_disagreements():
    target_1 = bits("0101000")
    target_2 = bits("0111000")
    joined = L.join_targets([target_1, target_2])
    assert joined[4] == TruthInterval(0.0, 1.0)   # IncRate(i): targets disagree
    for k in (0, 1, 2, 3, 5, 6):
        assert joined[k].width == 0.0
        assert joined[k].lo == target_1[k]


def test_join_targets_identity_cases():
    row = bits("0101000")
    joined = L.join_targets([row, row])
    assert [j.lo for j in joined] == row
    assert all(j.width == 0.0 for j in joined)
    single = L.join_targets([row])
    assert [j.lo for j in single] == row
    with pytest.raises(WidthMismatchError):
        L.join_targets([[0.0, 1.0], [0.0]])


def test_interval_pipeline_reproduces_widened_delete():
    result = L.lcm_pipeline(interval_problem(), "interval", MINMAX)
    increate = 4
    box = result.delete["B4"][increate]
    assert box.lo == pytest.approx(0.002, abs=0.005)
    assert box.hi == pytest.approx(0.999, abs=0.005)
    for key, row in result.insert.items():
        entry = row[increate]
        lo = 0.000 if key == ("B4", "B1") else 0.001
        assert entry.lo == pytest.approx(lo, abs=0.005), key
        assert entry.hi == pytest.approx(0.999, abs=0.005), key
    for b, row in result.delete.items():
        if b != "B4":
            assert row[increate].hi <= 0.005


def test_interval_pipeline_with_degenerate_inputs_matches_fuzzy():
    problem = diffpcm_problem()
    fuzzy = L.lcm_pipeline(problem, "fuzzy", MINMAX)
    boxed = L.lcm_pipeline(problem, "interval", MINMAX)
    for key in fuzzy.insert:
        for a, b in zip(fuzzy.insert[key], boxed.insert[key]):
            assert b.lo == pytest.approx(a, abs=1e-5)
            assert b.hi == pytest.approx(a, abs=1e-5)
    for blk in fuzzy.delete:
        for a, b in zip(fuzzy.delete[blk], boxed.delete[blk]):
            assert b.lo == pytest.approx(a, abs=1e-5)
            assert b.hi == pytest.approx(a, abs=1e-5)


# -- validation and serialization -------------------------------------------------------


def test_validate_rejects_structural_problems():
    problem = diffpcm_problem()
    problem.edges[0] = LcmEdge("B0", "B1", 0.5, 1.0)
    assert any("forward weights" in e for e in L.validate_problem(problem, "fuzzy"))

    problem = diffpcm_problem()
    problem.edges.append(LcmEdge("B5", "B0", 1.0, 1.0))
    errors = L.validate_problem(problem, "fuzzy")
    assert any("entry" in e for e in errors) and any("exit" in e for e in errors)

    problem = diffpcm_problem()
    del problem.dee["B4"]
    assert any("missing row" in e for e in L.validate_problem(problem, "fuzzy"))

    problem = diffpcm_problem()
    problem.dee["B4"][3] = 0.25
    assert any("crisp" in e for e in L.validate_problem(problem, "crisp"))
    assert L.validate_problem(problem, "fuzzy") == []

    problem = interval_problem()
    assert any("interval" in e for e in L.validate_problem(problem, "fuzzy"))
    assert L.validate_problem(problem, "interval") == []


def test_validate_reports_every_block_error_in_order():
    problem = LcmProblem(
        blocks=["s", "a", "b", "t"],
        edges=[LcmEdge("s", "a", 0.5, 0.25), LcmEdge("a", "t", 1.0, 1.0)],
        exprs=["e"],
        dee={b: [0.0] for b in "sabt"},
        uee={b: [0.0] for b in "sabt"},
        kill={b: [0.0] for b in "sabt"},
        entry="s",
        exit="t",
    )
    assert L.validate_problem(problem, "fuzzy") == [
        "backward weights out of 's' sum to 0.25",
        "forward weights into 'a' sum to 0.5",
        "block 'b' has no predecessors and is not the entry",
        "block 'b' has no successors and is not the exit",
    ]


def _chain(blocks=("s", "m", "t"), extra=(), exprs=("a",), entry="s", exit="t") -> LcmProblem:
    """s -> m -> t with unit weights, plus the ``extra`` (src, dst, alpha,
    alpha_back) edges."""
    edges = [LcmEdge("s", "m", 1.0, 1.0), LcmEdge("m", "t", 1.0, 1.0)]
    edges += [LcmEdge(*edge) for edge in extra]
    rows = [{b: [0.0] * len(exprs) for b in blocks} for _ in range(3)]
    return LcmProblem(list(blocks), edges, list(exprs), *rows, entry, exit)


@pytest.mark.parametrize("problem, mode, errors", [
    (_chain(), "x", ["unknown mode 'x'; expected one of ('crisp', 'fuzzy', 'interval')"]),
    (_chain(blocks=("s", "m", "m", "t")), "fuzzy", ["duplicate block ids"]),
    (_chain(exprs=("a", "a")), "fuzzy", ["duplicate expression names"]),
    (_chain(entry="q", exit="r"), "fuzzy", [
        "no block 'q'", "no block 'r'", "block 's' has no predecessors and is not the entry",
        "block 't' has no successors and is not the exit"]),
    (_chain(extra=[("m", "zz", 0.0, 0.0)]), "fuzzy", ["dangling edge m->zz"]),
    (_chain(extra=[("m", "t", 0.0, 0.0)]), "crisp", ["duplicate edge m->t"]),
    (_chain(extra=[("m", "m", 0.0, 0.0)]), "interval", ["self loop on 'm'"]),
])
def test_validate_names_each_structural_fault(problem, mode, errors):
    assert L.validate_problem(problem, mode) == errors


def test_join_targets_needs_a_row():
    with pytest.raises(ValueError, match=r"^need at least one predicate row$"):
        L.join_targets([])


def test_frank_interval_conj_resorts_swapped_pairs(monkeypatch):
    """Frank's re-sort puts a pair that its T-norm returned as (hi, lo) back
    in order: with every pair swapped, the report is unchanged."""
    family = LogicFamily.frank(2.0)
    expected = L.lcm_pipeline(interval_problem(), "interval", family).to_json_dict()
    tnorm = LogicFamily._tnorm_terms
    monkeypatch.setattr(LogicFamily, "_tnorm_terms",
                        lambda self, x, y: tnorm(self, x, y)[..., ::-1].copy())
    assert L.lcm_pipeline(interval_problem(), "interval", family).to_json_dict() == expected


def test_validate_walks_only_rows_whose_bulk_check_fails():
    problem = diffpcm_problem()
    problem.dee["B3"][2] = TruthInterval(0.25, 0.5)
    problem.uee["B4"][1] = 0.5
    problem.uee["B4"][5] = TruthInterval(0.0, 0.0)
    problem.kill["B2"] = [1, True, 0, False, -0.0, 1.0, 0.0]  # ints pass, bools do not
    bools = ["kill['B2'][1]: expected a number, got True",
             "kill['B2'][3]: expected a number, got False"]
    assert L.validate_problem(problem, "crisp") == [
        "dee['B3'][2]: interval value in crisp mode",
        "uee['B4'][1]: crisp mode needs 0or1, got 0.5",
        "uee['B4'][5]: interval value in crisp mode",
        *bools,
    ]
    assert L.validate_problem(problem, "fuzzy") == [
        "dee['B3'][2]: interval value in fuzzy mode",
        "uee['B4'][5]: interval value in fuzzy mode",
        *bools,
    ]
    assert L.validate_problem(problem, "interval") == [
        error.replace("a number", "a number or an interval") for error in bools]
    problem.kill["B2"][3] = float("nan")
    assert L.validate_problem(problem, "crisp")[-1] == "kill['B2'][3]: crisp mode needs 0or1, got nan"


@pytest.mark.parametrize("mode", ["fuzzy", "interval"])
@pytest.mark.parametrize("entry", [1.5, -0.5, 2, np.float64(1.5), float("nan"), float("inf")])
@pytest.mark.parametrize("at", [0, 5])
def test_validate_names_each_entry_outside_the_unit_interval(mode, entry, at):
    """A NaN is named wherever it sits in the row, not only as its first entry."""
    problem = diffpcm_problem()
    problem.dee["B4"][at] = entry
    errors = [f"dee['B4'][{at}]: not a truth value in [0,1]: {float(entry)!r}"]
    assert L.validate_problem(problem, mode) == errors
    with pytest.raises(ValueError) as exc:
        L.lcm_pipeline(problem, mode)
    assert exc.value.errors == errors


@pytest.mark.parametrize("mode", L.MODES)
@pytest.mark.parametrize("entry", ["0.5", True, False, None, (0.2, 0.4), [0.2, 0.4], np.True_])
def test_validate_names_each_entry_that_is_not_a_number(mode, entry):
    problem = diffpcm_problem()
    problem.dee["B4"][5] = entry
    kinds = "a number or an interval" if mode == "interval" else "a number"
    errors = [f"dee['B4'][5]: expected {kinds}, got {entry!r}"]
    assert L.validate_problem(problem, mode) == errors
    with pytest.raises(ValueError) as raised:
        L.lcm_pipeline(problem, mode)
    assert raised.value.errors == errors


@pytest.mark.parametrize("mode", L.MODES)
@pytest.mark.parametrize("entry", [1, np.int64(1), np.float64(1.0)])
def test_validate_accepts_any_real_number_entry(mode, entry):
    problem = diffpcm_problem()
    assert problem.dee["B4"][5] == 1.0
    expected = L.lcm_pipeline(problem, mode)
    problem.dee["B4"][5] = entry
    assert L.validate_problem(problem, mode) == []
    assert L.lcm_pipeline(problem, mode) == expected


def test_result_has_no_attribute_for_a_name_that_is_not_a_matrix():
    result = L.lcm_pipeline(diffpcm_problem(), "crisp")
    with pytest.raises(AttributeError, match=r"^av_in$"):
        result.av_in  # AvIn is not reported


def test_pipeline_takes_its_logic_from_the_config(data_dir):
    problem, _ = L.load_problem_file(str(data_dir / "diffpcm_t1.json"))  # a minmax file
    product = LogicFamily.product()
    by_family = L.lcm_pipeline(problem, "fuzzy", product)
    assert L.lcm_pipeline(problem, "fuzzy", cfg=SolverConfig(product)) == by_family
    assert L.lcm_pipeline(problem, "fuzzy", product, SolverConfig(product)) == by_family
    assert by_family != L.lcm_pipeline(problem, "fuzzy")


def test_a_family_that_differs_from_the_config_is_an_error():
    with pytest.raises(ValueError) as raised:
        L.lcm_pipeline(diffpcm_problem(), "fuzzy", MINMAX, SolverConfig(LogicFamily.product()))
    assert str(raised.value) == "family minmax differs from cfg.family product"


def test_pipeline_mode_must_match_values():
    with pytest.raises(ValueError):
        L.lcm_pipeline(interval_problem(), "fuzzy", MINMAX)


def test_problem_json_round_trip(data_dir):
    """The bundled files load to the in-memory problem and their settings."""
    problem, settings = L.load_problem_file(str(data_dir / "diffpcm_t1.json"))
    assert settings.mode == "fuzzy"
    assert settings.logic == MINMAX
    assert problem == diffpcm_problem()

    boxed, boxed_settings = L.load_problem_file(str(data_dir / "diffpcm_t2.json"))
    assert boxed_settings.mode == "interval"
    assert boxed.dee["B4"][4] == TruthInterval(0.0, 1.0)


def test_bundled_t1_matches_in_memory_problem(data_dir):
    problem, _ = L.load_problem_file(str(data_dir / "diffpcm_t1.json"))
    assert problem == diffpcm_problem()



@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mode, logic", [("crisp", "minmax"), ("fuzzy", "product"),
                                         ("fuzzy", "lukasiewicz"), ("interval", "product")])
def test_negative_zero_rows_report_as_zero(seed, mode, logic):
    """A library-built problem whose rows hold -0.0 reports exactly what the
    same problem with 0.0 reports: no "-0" reaches the JSON."""
    problem = random_crisp_problem(random.Random(f"negzero/{seed}"), max_blocks=10, max_exprs=5)
    negated = random_crisp_problem(random.Random(f"negzero/{seed}"), max_blocks=10, max_exprs=5)
    for name in ("dee", "uee", "kill"):
        rows = getattr(problem, name)
        setattr(negated, name, {b: [-0.0 if v == 0 else v for v in row] for b, row in rows.items()})
    family = LogicFamily.parse(logic)
    expected = _jsonio.dumps(L.lcm_pipeline(problem, mode, family).to_json_dict())
    text = _jsonio.dumps(L.lcm_pipeline(negated, mode, family).to_json_dict())
    assert "-0" not in text
    assert text == expected


# -- the pipeline on arrays ------------------------------------------------------------


def moded_problem(seed: int, mode: str) -> LcmProblem:
    """A random CFG with rows of the mode's kind."""
    if mode == "crisp":
        return random_crisp_problem(random.Random(seed), max_blocks=12, max_exprs=6)
    problem = soft_problem(seed)
    if mode == "interval":
        rng = random.Random(f"interval/{seed}")
        for name in ("dee", "uee", "kill"):
            rows = getattr(problem, name)
            for b, row in rows.items():
                rows[b] = [TruthInterval(*sorted((v, rng.random()))) for v in row]
    return problem


def test_interval_pipeline_and_report_build_no_intervals_and_validate_once(monkeypatch, data_dir):
    problems = [L.load_problem_file(str(data_dir / "diffpcm_t2.json"))[0]]
    problems += [moded_problem(seed, "interval") for seed in range(310, 313)]
    expected = [_jsonio.dumps(L.lcm_pipeline(p, "interval").to_json_dict()) for p in problems]
    built, validated = [], []
    init, validate = TruthInterval.__init__, L.validate_problem

    def counting_init(self, lo, hi):
        built.append(self)
        init(self, lo, hi)

    def counting_validate(problem, mode):
        validated.append(problem)
        return validate(problem, mode)

    monkeypatch.setattr(TruthInterval, "__init__", counting_init)
    monkeypatch.setattr(L, "validate_problem", counting_validate)
    problems[0] = L.load_problem_file(str(data_dir / "diffpcm_t2.json"))[0]
    assert not built  # the file's rows are held as arrays
    for problem, text in zip(problems, expected):
        result = L.lcm_pipeline(problem, "interval")
        assert _jsonio.dumps(result.to_json_dict()) == text
        assert validated == [problem] and not built
        validated.clear()
    result.delete  # a view is built on its first read ...
    assert built  # ... and holds TruthIntervals
    built.clear()
    assert problems[0].dee["B4"][4] == TruthInterval(0.0, 1.0)  # so are a parsed problem's rows
    assert built


def test_results_are_equal_when_their_reports_are():
    problem = diffpcm_problem()
    first, second = (L.lcm_pipeline(problem, "fuzzy", MINMAX) for _ in range(2))
    assert first == second and first is not second
    assert first != L.lcm_pipeline(problem, "crisp", MINMAX)
    problem.dee["B4"][5] = 0.0
    assert L.lcm_pipeline(problem, "fuzzy", MINMAX) != first


def test_edited_rows_show_in_the_next_run():
    """Rows are stacked per call, not cached on the problem."""
    problem = diffpcm_problem()
    before = L.lcm_pipeline(problem, "fuzzy", MINMAX).to_json_dict()
    problem.dee["B4"][5] = 0.0  # Transform(b) no longer computed in the body
    after = L.lcm_pipeline(problem, "fuzzy", MINMAX).to_json_dict()
    assert after != before
    fresh = diffpcm_problem()
    fresh.dee["B4"] = list(problem.dee["B4"])
    assert after == L.lcm_pipeline(fresh, "fuzzy", MINMAX).to_json_dict()


@pytest.mark.parametrize("mode", ["fuzzy", "interval"])
def test_views_are_cached_and_read_only_in_effect(mode):
    problem = interval_problem() if mode == "interval" else diffpcm_problem()
    result = L.lcm_pipeline(problem, mode, MINMAX)
    report = _jsonio.dumps(result.to_json_dict())
    names = ("av_out", "an_in", "an_out", "earliest", "later_in", "later_out", "insert", "delete")
    for name in names:
        view = getattr(result, name)
        assert getattr(result, name) is view
        key = next(iter(view))
        with pytest.raises(TypeError):
            view[key] = []
        with pytest.raises(TypeError):
            del view[key]
        with pytest.raises(AttributeError):
            setattr(result, name, {})
        view[key][0] = 0.5  # a row is a fresh list: the report does not see it
    assert _jsonio.dumps(result.to_json_dict()) == report


def _all_pairs(data: dict) -> None:
    for name in ("dee", "uee", "kill"):
        for row in data[name].values():
            row[:] = [v if isinstance(v, list) else [v, v] for v in row]
    data["dee"]["B4"][4] = 0.5


def _ints_for_0_and_1(data: dict) -> None:
    """Every 0.0 and 1.0 of the rows, pair ends included, and of the edge
    weights written as a JSON integer."""
    def write(v):
        return [write(end) for end in v] if isinstance(v, list) else int(v) if v in (0, 1) else v

    for name in ("dee", "uee", "kill"):
        data[name] = {b: write(row) for b, row in data[name].items()}
    for edge in data["edges"]:
        edge.update({key: write(edge[key]) for key in ("alpha", "alpha_back")})


# Ways to spoil a problem file's common shape, one at a time.
SPOILS = {
    "rows out of block order": lambda d: d.update(dee=dict(reversed(d["dee"].items()))),
    "an int entry": lambda d: d["uee"]["B4"].__setitem__(3, 1),
    "a -0.0 entry": lambda d: d["kill"]["B2"].__setitem__(0, -0.0),
    "a 1.0 + 1e-13 entry": lambda d: d["dee"]["B4"].__setitem__(5, 1.0 + 1e-13),
    "a scalar among pairs": _all_pairs,
    "an int edge weight": lambda d: d["edges"][2].__setitem__("alpha", 1),
    "an extra edge key": lambda d: d["edges"][1].__setitem__("note", "x"),
    "a missing row": lambda d: d["kill"].pop("B3"),
    "a string entry": lambda d: d["dee"]["B4"].__setitem__(2, "0.5"),
    "a number as an edge end": lambda d: d["edges"][0].__setitem__("to", 5),
    "every 0 and 1 as an int": _ints_for_0_and_1,
    "an int too large for a float": lambda d: d["uee"]["B1"].__setitem__(4, 10**400),
    "a row for an unknown block": lambda d: d["uee"].__setitem__("Q", d["uee"]["B1"]),
}


def parse_and_run(data: dict):
    """The parsed problem and, per mode, its report text or its errors; or
    the text of the parse error."""
    try:
        problem, _ = L.problem_from_json_dict(copy.deepcopy(data))
    except _jsonio.FileFormatError as exc:
        return str(exc)
    runs = {}
    for mode in L.MODES:
        try:
            runs[mode] = _jsonio.dumps(L.lcm_pipeline(problem, mode).to_json_dict())
        except ValueError as exc:
            runs[mode] = exc.errors
    return problem, runs


@pytest.mark.parametrize("stem", ["diffpcm_t1", "diffpcm_t2"])
@pytest.mark.parametrize("spoil", SPOILS)
def test_files_load_and_run_as_when_walked_field_by_field(data_dir, monkeypatch, stem, spoil):
    """A file in the common shape is held as arrays and anything else is
    walked: both load the same problem, report the same bytes in every mode
    and name the same faults, whichever shape a file has."""
    data = _jsonio.load_file(str(data_dir / f"{stem}.json"))
    SPOILS[spoil](data)
    held = parse_and_run(data)
    monkeypatch.setattr(L, "_row_array", lambda *args: None)
    monkeypatch.setattr(L, "_edge_columns", lambda *args: None)
    walked = parse_and_run(data)
    assert held == walked  # the runs come first: comparing problems builds their fields


@pytest.mark.parametrize("stem, spoil, mode, errors", [
    ("diffpcm_t1", "a scalar among pairs", None, "dee['B0'][0]: expected a number, got [0.0, 0.0]"),
    ("diffpcm_t1", "an extra edge key", None, "edges[1]: unknown keys ['note']"),
    ("diffpcm_t1", "a string entry", None, "dee['B4'][2]: expected a number, got '0.5'"),
    ("diffpcm_t2", "a string entry", None,
     "dee['B4'][2]: expected a number or a [lo, hi] pair, got '0.5'"),
    ("diffpcm_t1", "a number as an edge end", None, "edges[0].to: expected a string, got 5"),
    ("diffpcm_t1", "a missing row", "fuzzy", ["kill: missing row for block 'B3'"]),
    ("diffpcm_t2", "a missing row", "interval", ["kill: missing row for block 'B3'"]),
    ("diffpcm_t2", "a -0.0 entry", "fuzzy",
     [f"{name}[{b!r}][{k}]: interval value in fuzzy mode"
      for name in ("dee", "uee", "kill") for b in ("B0", "B1", "B2", "B3", "B4", "B5")
      for k in range(7)]),
])
def test_spoiled_files_name_their_faults(data_dir, stem, spoil, mode, errors):
    data = _jsonio.load_file(str(data_dir / f"{stem}.json"))
    SPOILS[spoil](data)
    outcome = parse_and_run(data)
    assert (outcome if mode is None else outcome[1][mode]) == errors


@pytest.mark.parametrize("stem", ["diffpcm_t1", "diffpcm_t2"])
def test_ints_for_0_and_1_load_as_arrays(data_dir, stem):
    data = _jsonio.load_file(str(data_dir / f"{stem}.json"))
    _ints_for_0_and_1(data)
    problem, _ = L.problem_from_json_dict(data)
    assert all(problem._held(name) is not None for name in ("dee", "uee", "kill", "edges"))
    weights = problem._held("edges")[2] + problem._held("edges")[3]
    assert 1 in weights and {type(w) for w in weights} == {float}  # as load_number reads them


def test_parsed_rows_hold_no_negative_zero(data_dir):
    data = _jsonio.load_file(str(data_dir / "diffpcm_t1.json"))
    SPOILS["a -0.0 entry"](data)
    problem, runs = parse_and_run(data)
    assert "-0" not in runs["fuzzy"]
    assert repr(problem.kill["B2"][0]) == "0.0"


def run_or_errors(problem: LcmProblem, mode: str):
    """The report text of ``problem`` in ``mode``, or its errors."""
    errors = L.validate_problem(problem, mode)
    try:
        return _jsonio.dumps(L.lcm_pipeline(problem, mode).to_json_dict())
    except ValueError as exc:
        assert exc.errors == errors
        return errors


def _mix_intervals(problem: LcmProblem) -> None:
    row = problem.kill["B4"]
    problem.kill["B4"] = [TruthInterval(v, v) if k % 2 else v for k, v in enumerate(row)]


# Ways to write a library-built problem's rows (the differential-PCM loop's),
# with the errors each names by mode; in any other mode it reports what the
# unspoiled problem reports.  The messages come from a run before library rows
# and file rows shared one array path.
LIBRARY_SPOILS = {
    "int rows": (lambda p: p.kill.update((b, list(map(int, row))) for b, row in p.kill.items()),
                 {}),
    "entries within the slack": (
        lambda p: (p.dee["B4"].__setitem__(5, 1.0 + 1e-13), p.uee["B0"].__setitem__(0, -1e-13)),
        {"crisp": ["dee['B4'][5]: crisp mode needs 0or1, got 1.0000000000001",
                   "uee['B0'][0]: crisp mode needs 0or1, got -1e-13"]}),
    "np.float64 and np.int64 entries": (
        lambda p: (p.dee.update(B4=list(map(np.float64, p.dee["B4"]))),
                   p.kill.update(B3=list(map(np.int64, p.kill["B3"])))), {}),
    "Fraction entries": (lambda p: p.uee.update(B4=list(map(Fraction, p.uee["B4"]))), {}),
    "tuple rows": (lambda p: p.dee.update((b, tuple(row)) for b, row in p.dee.items()), {}),
    "rows keyed out of block order": (lambda p: setattr(p, "uee", dict(reversed(p.uee.items()))),
                                      {}),
    "intervals among numbers": (_mix_intervals, {
        mode: [f"kill['B4'][{k}]: interval value in {mode} mode" for k in (1, 3, 5)]
        for mode in ("crisp", "fuzzy")}),
    "a [lo, hi] list in an interval row": (lambda p: p.dee["B4"].__setitem__(2, [0.2, 0.4]), {
        "crisp": ["dee['B4'][2]: expected a number, got [0.2, 0.4]"],
        "fuzzy": ["dee['B4'][2]: expected a number, got [0.2, 0.4]"],
        "interval": ["dee['B4'][2]: expected a number or an interval, got [0.2, 0.4]"]}),
    "duplicate block ids and a row for an unknown block": (
        lambda p: (p.blocks.append("B3"), p.dee.__setitem__("Z", [0.0] * 7)),  # 7 ids, 7 rows
        {mode: ["duplicate block ids", "dee: row for unknown block 'Z'"] for mode in L.MODES}),
}


@pytest.mark.parametrize("mode", L.MODES)
@pytest.mark.parametrize("spoil", LIBRARY_SPOILS)
def test_library_rows_run_as_when_walked_entry_by_entry(monkeypatch, spoil, mode):
    """Library-built rows take the file rows' bulk check, or the walk where it
    fails; either way they report and name faults as before."""
    edit, errors = LIBRARY_SPOILS[spoil]
    expected = errors.get(mode) or run_or_errors(diffpcm_problem(), mode)
    problem = diffpcm_problem()
    edit(problem)
    assert run_or_errors(problem, mode) == expected
    monkeypatch.setattr(L, "_row_array", lambda *args: None)
    assert run_or_errors(problem, mode) == expected


@pytest.mark.parametrize("mode", L.MODES)
def test_each_row_array_is_built_once_per_run(monkeypatch, data_dir, mode):
    """Validation builds each row field's array, and the run stacks those:
    a library-built problem's rows are read once per call, a parsed
    problem's held arrays not at all."""
    row_array, built = L._row_array, []

    def counting_row_array(raw, *args):
        built.append(raw)
        return row_array(raw, *args)

    monkeypatch.setattr(L, "_row_array", counting_row_array)
    library = moded_problem(21, mode)
    parsed, _ = L.load_problem_file(str(data_dir / "diffpcm_t2.json"))
    built.clear()
    for _ in range(2):
        L.lcm_pipeline(library, mode)
        assert list(map(id, built)) == [id(library.dee), id(library.uee), id(library.kill)]
        built.clear()
        L.lcm_pipeline(parsed, "interval")
        assert built == []


def _swap_join_weights(edges: list) -> None:
    """B1's two in-edges trade their forward weights."""
    edges[0], edges[1] = (LcmEdge(e.src, e.dst, other.alpha, e.alpha_back)
                          for e, other in ((edges[0], edges[1]), (edges[1], edges[0])))


@pytest.mark.parametrize("field, edit", [
    ("dee", lambda rows: rows["B4"].__setitem__(5, 0.0)),
    ("edges", _swap_join_weights),
])
@pytest.mark.parametrize("how", ["read", "assigned"])
def test_edits_to_a_parsed_problem_show_in_the_next_run(data_dir, field, edit, how):
    problem, _ = L.load_problem_file(str(data_dir / "diffpcm_t1.json"))
    library = diffpcm_problem()
    before = L.lcm_pipeline(problem, "fuzzy")
    assert before == L.lcm_pipeline(library, "fuzzy")
    if how == "assigned":
        setattr(problem, field, copy.deepcopy(getattr(library, field)))
    for target in (problem, library):
        edit(getattr(target, field))
    after = L.lcm_pipeline(problem, "fuzzy")
    assert after != before
    assert after == L.lcm_pipeline(library, "fuzzy")


def test_reordered_blocks_of_a_parsed_problem_show_in_the_next_run(data_dir):
    problem, _ = L.load_problem_file(str(data_dir / "diffpcm_t1.json"))
    library = diffpcm_problem()
    for target in (problem, library):
        target.blocks.reverse()
    assert _jsonio.dumps(L.lcm_pipeline(problem, "fuzzy").to_json_dict()) == _jsonio.dumps(
        L.lcm_pipeline(library, "fuzzy").to_json_dict())


# -- stacked expressions, interval order, drawn CFGs ---------------------------------


STACK_FAMILIES = ["minmax", "product", "lukasiewicz", "nilpotent", "frank:2"]


def single_expression(problem: LcmProblem, k: int) -> LcmProblem:
    """``problem`` with expression ``k`` alone."""
    rows = ({b: [row[k]] for b, row in m.items()} for m in (problem.dee, problem.uee, problem.kill))
    return LcmProblem(problem.blocks, problem.edges, [problem.exprs[k]], *rows,
                      problem.entry, problem.exit)


def column_bits(result) -> list[bytes]:
    """Each expression's column of every matrix of ``result``, as raw bits."""
    return [b"".join(values[:, k].tobytes() for values in result._arrays.values())
            for k in range(len(result.exprs))]


def assert_stacking_changes_nothing(problem, mode, family, cfg=None):
    result = L.lcm_pipeline(problem, mode, family, cfg)
    alone = [L.lcm_pipeline(single_expression(problem, k), mode, family, cfg)
             for k in range(len(problem.exprs))]
    assert column_bits(result) == [column_bits(r)[0] for r in alone]
    assert result.converged == all(r.converged for r in alone)
    return alone


@pytest.mark.parametrize("logic", STACK_FAMILIES)
@pytest.mark.parametrize("mode", ["crisp", "fuzzy", "interval"])
def test_stacked_expressions_report_what_each_reports_alone(mode, logic):
    """Every expression column is swept, frozen and pruned on its own: a
    problem's report equals, column by column and bit for bit, the reports
    of its expressions run one at a time."""
    family = LogicFamily.parse(logic)
    stacked = 0
    for seed in range(400, 408):
        problem = moded_problem(seed, mode)
        stacked += len(problem.exprs) > 1
        assert_stacking_changes_nothing(problem, mode, family)
    assert stacked >= 4


@pytest.mark.parametrize("mode", ["fuzzy", "interval"])
def test_stacking_changes_nothing_where_some_columns_stop_unconverged(mode):
    family = LogicFamily.product()
    problem = interval_problem() if mode == "interval" else diffpcm_problem()
    alone = assert_stacking_changes_nothing(problem, mode, family,
                                            SolverConfig(family=family, max_iters=10))
    assert {r.converged for r in alone} == {True, False}


def test_interval_conj_keeps_ordered_pairs_ordered():
    """Only Frank re-sorts interval pairs: the other T-norms are monotone in
    floating point, so on ordered pairs they never return lo > hi, and
    Frank's results are ordered after its re-sort."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    runs = [L._Run(interval_problem(), "interval", SolverConfig(LogicFamily.parse(logic)))
            for logic in STACK_FAMILIES]
    assert [run.resort for run in runs] == [logic == "frank:2" for logic in STACK_FAMILIES]
    ends = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-53, 0.5]))

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=list(HealthCheck))
    @given(st.lists(ends, min_size=4, max_size=64))
    def check(values):
        x, y = np.sort(np.array(values[:len(values) // 4 * 4]).reshape(2, -1, 1, 2))
        for logic, run in zip(STACK_FAMILIES, runs):
            for out in (run.conj(x, y), run.disj(x, y)):
                assert (out[..., 0] <= out[..., 1]).all(), logic

    check()


def _drawn_cfgs():
    """Fuzzy problems on drawn CFGs: every block but the entry draws 1 to 5
    predecessors (the exit also gets an edge from each block left without a
    successor), the edges come in a drawn order, the weights are uneven and
    rows mix U[0,1] draws with exact 0s and 1s."""
    from hypothesis import strategies as st

    @st.composite
    def problems(draw):
        n = draw(st.integers(2, 9))
        blocks = [f"b{i}" for i in range(n)]
        pairs = set()
        for i in range(1, n):
            sources = [j for j in range(n - 1) if j != i]
            pairs.update((j, i) for j in draw(st.lists(st.sampled_from(sources), min_size=1,
                                                       max_size=5, unique=True)))
        pairs.update((i, n - 1) for i in range(n - 1) if all(s != i for s, _ in pairs))
        pairs = draw(st.permutations(sorted(pairs)))
        weight = [draw(st.integers(1, 10)) for _ in pairs]
        weight_back = [draw(st.integers(1, 10)) for _ in pairs]
        into = {d: sum(w for (_, d2), w in zip(pairs, weight) if d2 == d) for _, d in pairs}
        out_of = {s: sum(w for (s2, _), w in zip(pairs, weight_back) if s2 == s) for s, _ in pairs}
        edges = [LcmEdge(blocks[s], blocks[d], w / into[d], wb / out_of[s])
                 for (s, d), w, wb in zip(pairs, weight, weight_back)]
        n_exprs = draw(st.integers(1, 3))
        value = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
        rows = [{b: draw(st.lists(value, min_size=n_exprs, max_size=n_exprs)) for b in blocks}
                for _ in range(3)]
        return LcmProblem(blocks, edges, [f"e{k}" for k in range(n_exprs)], *rows,
                          blocks[0], blocks[-1])

    return problems()


def test_fuzzy_pipeline_matches_reference_on_drawn_cfgs():
    from hypothesis import HealthCheck, given, settings

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=list(HealthCheck))
    @given(_drawn_cfgs())
    def check(problem):
        assert not L.validate_problem(problem, "fuzzy")
        result = L.lcm_pipeline(problem, "fuzzy", MINMAX)
        assert result.converged
        assert_matches_reference(result, problem, MINMAX, tol=2e-5)

    check()


# -- availability and anticipatability in one sweep loop ----------------------------


def loop_problem(slow: str, mode: str) -> LcmProblem:
    """Entry E, loop header H, latch L, exit X, with the back edge L->H
    carrying 0.99 of H's inflow and 0.99 of L's outflow.  Expression "slow"
    climbs around that loop in one analysis only: availability when ``slow``
    is "av" (dee 0.5 at E alone, uee 1 everywhere), anticipatability when it
    is "an" (uee 0.5 at X alone, dee 1 everywhere).  Expression "fast" has
    dee and uee 1 everywhere.  Nothing is killed."""
    blocks = ["E", "H", "L", "X"]
    edges = [LcmEdge("E", "H", 0.01, 1.0), LcmEdge("L", "H", 0.99, 0.99),
             LcmEdge("H", "L", 1.0, 1.0), LcmEdge("L", "X", 1.0, 0.01)]
    seed = "E" if slow == "av" else "X"
    climb = {b: [0.5 if b == seed else 0.0, 1.0] for b in blocks}
    ones = {b: [1.0, 1.0] for b in blocks}
    dee, uee = (climb, ones) if slow == "av" else (ones, climb)
    kill = {b: [0.0, 0.0] for b in blocks}
    if mode == "interval":  # the same degrees, one as a proper interval
        dee, uee = ({b: [TruthInterval(v, v) for v in row] for b, row in m.items()}
                    for m in (dee, uee))
        uee["E"][1] = TruthInterval(0.75, 1.0)
    return LcmProblem(blocks, edges, ["slow", "fast"], dee, uee, kill, "E", "X")


def no_edges_problem(mode: str) -> LcmProblem:
    row = {"crisp": [1.0, 0.0], "fuzzy": [0.25, 0.75],
           "interval": [TruthInterval(0.25, 0.5), TruthInterval(0.75, 0.75)]}[mode]
    return LcmProblem(["only"], [], ["a", "b"], {"only": list(row)}, {"only": list(row[::-1])},
                      {"only": [0.0, 1.0]}, "only", "only")


def no_exprs_problem() -> LcmProblem:
    problem = random_crisp_problem(random.Random(5), max_blocks=8)
    problem.exprs = []
    problem.dee, problem.uee, problem.kill = ({b: [] for b in problem.blocks} for _ in range(3))
    return problem


def report_digest(result) -> str:
    return hashlib.sha256(_jsonio.dumps(result.to_json_dict()).encode()).hexdigest()


STAGE1_CAP = 40
# SHA-256 of each report, frozen from the engine that solved availability and
# anticipatability in two sweep loops, one after the other.
STAGE1_DIGESTS = {
    "av/fuzzy/minmax": "b69bb3cdeedd422f3d396c3179b92a0a09739f32788d856f1a8c350400d1412c",
    "av/fuzzy/product": "a3f8eaec25ca40137fa880714e05edb5c2f9d7e72076084935a88d68a7ae5816",
    "av/fuzzy/frank:2": "6e88e751d565da06aefd89457cd396ede08dc44b66bc90a60b309ceb236317cd",
    "av/interval/minmax": "17e0a78930c5dc83cc23f1b85596a16fd5742e02c752ea175e71ac6dff799303",
    "av/interval/product": "2254a32eb588dd5ce896995052fb0e5f9605d09e95582b311342368ca2379003",
    "av/interval/frank:2": "3d54f4b900d33bfd4e5b965e9e62727ff9d675e5e63f2deb471a32092c2e360c",
    "an/fuzzy/minmax": "8312be194504811927489169c73d62c98c3e88279fed8ae5f3082af03d6bcb6d",
    "an/fuzzy/product": "8312be194504811927489169c73d62c98c3e88279fed8ae5f3082af03d6bcb6d",
    "an/fuzzy/frank:2": "ec9ef82d5e6b0fdc1e539357f3becc0a05b7e6fef68ed40b57e41c2d60626c3d",
    "an/interval/minmax": "c511334cd43fcf71407b8872fd98fea30cb2ab3fc42553a804c18ebf6c60f340",
    "an/interval/product": "c511334cd43fcf71407b8872fd98fea30cb2ab3fc42553a804c18ebf6c60f340",
    "an/interval/frank:2": "6fcb87ff1329d82b071ae2cb42019023ce8b86bfa89c8a4c142f95ba73144765",
    "no_edges/crisp": "d43a04b45a6112db2193aee0e39dca0cf0a826cc9e727a57785e9e2a82cddd7e",
    "no_exprs/crisp": "b4953c6449d89352c9379df42e1d2f0b4067b74393b500c8f9f2586149b788ea",
    "no_edges/fuzzy": "60b71aacd29ca56cb1a3c05e45401c6b41cc0ebd2b0d20e9d1bdb645c477e40d",
    "no_exprs/fuzzy": "10fe1523e968fee61c587573b885f9ac0344f50460747ae0a480003c476aa285",
    "no_edges/interval": "049c1eaeba9dfd59bf0c8c2c1d712b4c1b5f0b1215dd8fd978db1b2a93bb732a",
    "no_exprs/interval": "b6b9fe56b5959e138dc9ebdb7bf7004f72d94680a048d3edcda360ad657ca84e",
}
# Per slow analysis: the column counts of the stage-1 meets, sorted.  The
# slow analysis meets in each of its STAGE1_CAP sweeps, the other only until
# both its columns are frozen.
STAGE1_MEET_WIDTHS = {"av": [1] * 37 + [2] * 6, "an": [1] * 37 + [2] * 6}
LOOP_CASES = [(slow, mode, logic) for slow in ("av", "an") for mode in ("fuzzy", "interval")
              for logic in ("minmax", "product", "frank:2")]


@pytest.mark.parametrize("slow, mode, logic", LOOP_CASES)
def test_one_slow_analysis_leaves_the_report_unconverged(slow, mode, logic):
    """Where only one of availability and anticipatability needs more than
    ``max_iters`` sweeps, the report says so, the other analysis's matrices
    are those of an uncapped run, and every byte is as before."""
    family = LogicFamily.parse(logic)
    capped = L.lcm_pipeline(loop_problem(slow, mode), mode,
                            cfg=SolverConfig(family, max_iters=STAGE1_CAP))
    full = L.lcm_pipeline(loop_problem(slow, mode), mode, cfg=SolverConfig(family))
    assert not capped.converged and full.converged
    settled, climbing = (("an_in", "an_out"), ("av_out",)) if slow == "av" else (
        ("av_out",), ("an_in", "an_out"))
    for name in settled:
        assert (capped._arrays[name] == full._arrays[name]).all(), name
    for name in climbing:
        assert (capped._arrays[name][:, 0] != full._arrays[name][:, 0]).any(), name
        assert (capped._arrays[name][:, 1] == full._arrays[name][:, 1]).all(), name
    assert report_digest(capped) == STAGE1_DIGESTS[f"{slow}/{mode}/{logic}"]


@pytest.mark.parametrize("mode", ["crisp", "fuzzy", "interval"])
def test_problems_without_edges_or_expressions_report_as_before(mode):
    for name, problem in (("no_edges", no_edges_problem(mode)), ("no_exprs", no_exprs_problem())):
        result = L.lcm_pipeline(problem, mode, LogicFamily.product())
        assert result.converged
        assert report_digest(result) == STAGE1_DIGESTS[f"{name}/{mode}"]


@pytest.mark.parametrize("slow", ["av", "an"])
def test_stage1_meets_an_analysis_only_while_it_has_active_columns(monkeypatch, slow):
    widths = []
    meet = L._Links.meet

    def spy(self, rows, crisp, cols=slice(None), fresh=False):
        if fresh:  # a rows-first meet: one of stage 1's sweeps
            widths.append(rows[:, cols].shape[1])
        return meet(self, rows, crisp, cols, fresh)

    monkeypatch.setattr(L._Links, "meet", spy)
    L.lcm_pipeline(loop_problem(slow, "fuzzy"), "fuzzy",
                   cfg=SolverConfig(LogicFamily.product(), max_iters=STAGE1_CAP))
    assert 0 not in widths
    assert sorted(widths) == STAGE1_MEET_WIDTHS[slow]
