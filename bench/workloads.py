"""The four benchmark workloads.

Each workload makes its inputs from the seed (``inputs``, which also sets
``cycle``, the number of operations that make one whole mix), runs one
operation through the public API or the CLI (``run``), says which module
attributes the traced run wraps (``wrap``) and which slice of its inputs
measures what tracing costs (``calibration``), returns to the state its
inputs left it in (``reset``), and checks every recorded output after the
timed loop (``check``, or ``check_all`` where one operation's output
depends on the ones before it).  ``names`` are what its throughput, median
and tail are called in the workload's own terms, and ``starts_processes``
says whether an operation starts a process, which sets the reference its
times are scaled by (see ``speed.py``).  All are closed loop with
one client: the next operation starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
DEMOS = ROOT / "demos" / "data"

FAMILIES = ("minmax", "product", "lukasiewicz", "frank:2")
# Distinct problems per size in one LCM cycle.  The ratio is a time-budget
# choice, not a model of real programs: one cycle has to fit in one run.
# The CFG structure sets the sweep counts, so one soft problem's cost varies
# by 12-17% with the seed; the gated metric takes the mean per size, so each
# size holds as many distinct problems as the budget allows, and weighs the
# sizes equally, so the ratio sets no weight.  lcm-soft runs no large
# problem: one takes 3-13 s, so a run could hold only one or two, and the
# machine can change speed while it runs (see bench/README.md); the traced
# run times them in its table pass instead.
CRISP_MIX = (("small", 48), ("medium", 8), ("large", 2))
SOFT_MIX = (("small", 48), ("medium", 16))
# CFGs per size in the traced run's table pass (one large interval problem
# alone takes 7-13 s).
TABLE_PROBLEMS = (("small", 5), ("medium", 3), ("large", 1))
TOLERANCE = 2e-5  # the abs= tolerance of the fuzzy reference test


@dataclass
class Op:
    key: str          # what the per-layer table groups by
    payload: object
    index: int        # position in the inputs; names the distinct input

    @property
    def kind(self) -> str:
        """What the gated mean groups by: the size of an LCM problem, the
        command of a CLI call, ``period`` for the ANFIS stream."""
        return self.key.split(".")[0]


def _interleave(groups: list[list]) -> list:
    """Spread each group evenly over one sequence, in a fixed order."""
    keyed = []
    for g, items in enumerate(groups):
        for k, item in enumerate(items):
            keyed.append(((k + 0.5) / len(items), g, item))
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


def _import_fuzzydfa():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fuzzydfa

    return fuzzydfa


# -- LCM ------------------------------------------------------------------------


class LcmWorkload:
    """JSON text in, JSON report out, the path ``fuzzydfa lcm`` takes."""

    names = ("lcm_problems_per_s", "lcm_latency_p50_ms", "lcm_latency_tail_ms")
    starts_processes = False

    def __init__(self, crisp: bool):
        self.crisp = crisp
        self.fd = _import_fuzzydfa()
        from fuzzydfa import _jsonio, lcm

        self.lcm = lcm
        self.jsonio = _jsonio
        self.references: dict[int, object] = {}

    def inputs(self, seed: int) -> list[Op]:
        groups = []
        for size, count in CRISP_MIX if self.crisp else SOFT_MIX:
            group = []
            for i in range(count):
                # Each (mode, family) pair takes the same share of a size.
                mode = "crisp" if self.crisp else ("fuzzy", "interval")[(i + i // 4) % 2]
                group.append((size, mode, FAMILIES[i % 4], i))
            groups.append(group)
        ops = []
        for index, (size, mode, family, i) in enumerate(_interleave(groups)):
            # The i-th problem of a size has the same CFG in both workloads.
            text = gen.lcm_problem_text(random.Random(f"{seed}/{size}/{i}"), size, mode, family)
            ops.append(Op(f"{size}.{mode}.{family}", text, index))
        self.cycle = len(ops)
        return ops

    def table(self, seed: int, first_index: int) -> list[Op]:
        """The problems of the traced run's table pass, numbered from
        ``first_index``: minmax, the baseline table's family, on
        TABLE_PROBLEMS CFGs per size that each carry crisp, fuzzy and
        interval rows."""
        ops = []
        for size, count in TABLE_PROBLEMS:
            for i in range(count):
                for mode in ("crisp", "fuzzy", "interval"):
                    rng = random.Random(f"{seed}/table/{size}/{i}")
                    text = gen.lcm_problem_text(rng, size, mode, "minmax")
                    ops.append(Op(f"{size}.{mode}.minmax", text, first_index + len(ops)))
        return ops

    def calibration(self, ops: list[Op]) -> list[Op]:
        return [op for op in ops if op.key.startswith("small.")][:32]

    def wrap(self, tracer) -> None:
        lcm = self.lcm
        for name in ("lcm_pipeline", "validate_problem", "availability", "anticipatability",
                     "earliest", "later", "insert_delete"):
            span = "lcm.pipeline" if name == "lcm_pipeline" else f"lcm.{name}"
            tracer.wrap(lcm, name, span)

        def count_solve(args, kwargs, report):
            graph = args[0]
            with_preds = {e.dst for e in graph.edges}
            pinned = {graph.start} | (set(graph.transfers) - with_preds)
            evals = sum(
                len(graph.transfers[e.dst]) for e in graph.edges
                if e.dst in graph.transfers and e.dst not in pinned
            )
            tracer.counts["solver.solves"] += 1
            tracer.counts["solver.sweeps"] += report.iterations
            tracer.counts["solver.unconverged"] += not report.converged
            tracer.counts["solver.edge_evals"] += evals * report.iterations

        tracer.wrap(lcm, "solve", "solver.solve", count_solve)
        tracer.wrap(lcm, "solve_interval", "solver.solve", count_solve)
        tracer.wrap(self.fd.solver, "validate", "flowgraph.validate")

    def reset(self) -> None:
        pass

    def run(self, op: Op, span) -> str:
        lcm = self.lcm
        with span("jsonio.parse"):
            problem, settings = lcm.problem_from_json_dict(json.loads(op.payload))
        family = settings.logic
        cfg = self.fd.SolverConfig(family=family)  # the CLI's defaults
        result = lcm.lcm_pipeline(problem, settings.mode, family, cfg)
        with span("jsonio.serialise"):
            return self.jsonio.dumps(result.to_json_dict())

    def check(self, op: Op, out: str) -> str | None:
        report = json.loads(out)
        if report["converged"] is not True:
            return "did not converge"
        data = json.loads(op.payload)
        mode, logic = data["mode"], data["logic"]
        if mode == "crisp":
            return self._check_crisp(op, report)
        if mode == "fuzzy" and logic == "minmax":
            return self._check_fuzzy_minmax(op, report)
        return _check_unit_values(report, interval=mode == "interval")

    def _problem(self, op: Op):
        return self.lcm.problem_from_json_dict(json.loads(op.payload))[0]

    def _check_crisp(self, op: Op, report: dict) -> str | None:
        if op.index not in self.references:
            if str(TESTS) not in sys.path:
                sys.path.insert(0, str(TESTS))
            from krs_oracle import krs_bitvector

            self.references[op.index] = krs_bitvector(self._problem(op))
        insert, delete = self.references[op.index]
        got_insert = {
            (row["from"], row["to"]): frozenset(k for k, v in enumerate(row["values"]) if v)
            for row in report["insert"]
        }
        got_delete = {
            b: frozenset(k for k, v in enumerate(row) if v) for b, row in report["delete"].items()
        }
        for rows in (report["insert"], report["delete"].values()):
            for row in rows:
                values = row["values"] if isinstance(row, dict) else row
                if any(v not in (0.0, 1.0) for v in values):
                    return "crisp report holds a value other than 0 or 1"
        if got_insert != insert or got_delete != delete:
            return "insert/delete differ from the KRS bit-vector oracle"
        return None

    def _check_fuzzy_minmax(self, op: Op, report: dict) -> str | None:
        if op.index not in self.references:
            if str(TESTS) not in sys.path:
                sys.path.insert(0, str(TESTS))
            from test_lcm import fuzzy_reference

            problem = self._problem(op)
            self.references[op.index] = [
                fuzzy_reference(problem, k) for k in range(len(problem.exprs))
            ]
        worst = 0.0
        for k, ref in enumerate(self.references[op.index]):
            pairs = [("av_out", "av"), ("an_out", "an"), ("an_in", "anout"),
                     ("later_in", "later_in"), ("delete", "delete")]
            for got_name, ref_name in pairs:
                for b, row in report[got_name].items():
                    worst = max(worst, abs(row[k] - ref[ref_name][b]))
            for got_name, ref_name in (("earliest", "earliest"), ("later_out", "later_out"),
                                       ("insert", "insert")):
                for row in report[got_name]:
                    worst = max(worst, abs(row["values"][k] - ref[ref_name][(row["from"], row["to"])]))
        if not worst <= TOLERANCE:
            return f"differs from the fuzzy equation reference by {worst:.3g}"
        return None


def _check_unit_values(report: dict, interval: bool) -> str | None:
    for name in ("av_out", "an_in", "an_out", "earliest", "later_in", "later_out", "insert", "delete"):
        rows = report[name]
        rows = rows.values() if isinstance(rows, dict) else [r["values"] for r in rows]
        for row in rows:
            for v in row:
                lo, hi = v if interval else (v, v)
                if not (0.0 <= lo <= hi <= 1.0) or math.isnan(lo) or math.isnan(hi):
                    return f"{name}: value {v!r} outside [0,1] or lo > hi"
    return None


# -- ANFIS stream ---------------------------------------------------------------

ANFIS_DIM = 4
ANFIS_PERIOD = 25
ANFIS_PERIODS = 400   # the stream repeats after this many periods
ANFIS_FLIP_EVERY = 8  # periods per label regime
ANFIS_MU = 0.05
ANFIS_THRESHOLD = 0.8


class AnfisWorkload:
    """Periods of a seeded stream fed one by one to ``run_harness``, the
    adapted models carried from each period to the next."""

    names = ("anfis_periods_per_s", "anfis_period_p50_ms", "anfis_period_tail_ms")
    starts_processes = False
    cycle = 2 * ANFIS_FLIP_EVERY  # both label regimes

    def __init__(self):
        _import_fuzzydfa()
        from fuzzydfa import anfis

        self.anfis = anfis
        self.tc = anfis.TrainConfig(mu=ANFIS_MU, retrain_error_threshold=ANFIS_THRESHOLD)

    def inputs(self, seed: int) -> list[Op]:
        model = self.anfis.uniform_model(ANFIS_DIM, 3)
        self.start = self.models = (model, model)
        return [
            Op("period", gen.anfis_period(seed, i, ANFIS_PERIOD, ANFIS_DIM, ANFIS_FLIP_EVERY), i)
            for i in range(ANFIS_PERIODS)
        ]

    def wrap(self, tracer) -> None:
        for name in ("predict", "lms_update", "ls_fit"):
            tracer.wrap(self.anfis, name, f"anfis.{name}")

    def calibration(self, ops: list[Op]) -> list[Op]:
        return ops[:20]

    def reset(self) -> None:
        self.models = self.start

    def run(self, op: Op, span) -> float:
        xs, ys = op.payload
        result = self.anfis.run_harness(*self.models, [xs], [ys], self.tc)
        self.models = (result.update_model, result.leave_model)
        return result.error_rates[0]

    def check_all(self, done: list[tuple[Op, object]]) -> list[str | None]:
        """The rates of the period-by-period run must equal one run of the
        harness over the whole stream consumed."""
        periods = [op.payload[0] for op, _ in done]
        labels = [op.payload[1] for op, _ in done]
        whole = self.anfis.run_harness(*self.start, periods, labels, self.tc).error_rates
        return [
            None if out == rate else f"period rate {out!r} != whole-stream rate {rate!r}"
            for (_, out), rate in zip(done, whole)
        ]


# -- CLI ------------------------------------------------------------------------

CLI_COMMANDS = {
    "solve": ["solve", "demos/data/fig1.json"],
    "lcm_fuzzy": ["lcm", "demos/data/diffpcm_t1.json", "--mode", "fuzzy"],
    "lcm_crisp": ["lcm", "demos/data/diffpcm_t1.json", "--mode", "crisp"],
    "lcm_interval": ["lcm", "demos/data/diffpcm_t2.json"],
    "anfis_train": ["anfis-train", "demos/data/anfis_models.json", "demos/data/anfis_samples.csv",
                    "--mu", "0.05", "--period-length", "25"],
    "validate": ["validate", "demos/data/fig1.json"],
}
CLI_ROUNDS = 100  # rounds in a seeded order; the loop starts over after them


class CliWorkload:
    """Subprocess calls of the bundled commands: interpreter start-up,
    ``import fuzzydfa``, the work and the report, as a user sees them."""

    names = ("cli_calls_per_s", "cli_wall_p50_ms", "cli_wall_tail_ms")
    starts_processes = True
    cycle = len(CLI_COMMANDS)

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.expected: dict[str, bytes] = {}

    def inputs(self, seed: int) -> list[Op]:
        if not DEMOS.is_dir():
            raise FileNotFoundError(f"no bundled data at {DEMOS}")
        rng = random.Random(seed)
        ops = []
        for _ in range(CLI_ROUNDS):
            names = sorted(CLI_COMMANDS)
            rng.shuffle(names)
            ops.extend(Op(name, CLI_COMMANDS[name], len(ops)) for name in names)
        return ops

    def wrap(self, tracer) -> None:
        pass

    def calibration(self, ops: list[Op]) -> list[Op]:
        return []  # no wrappers: tracing costs nothing to measure

    def reset(self) -> None:
        pass

    def run(self, op: Op, span) -> tuple[int, bytes]:
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzydfa", *op.payload],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=False,
        )
        return proc.returncode, proc.stdout

    def check(self, op: Op, out: tuple[int, bytes]) -> str | None:
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        if op.key not in self.expected:
            self.expected[op.key] = _in_process_cli(op.payload)
        if stdout != self.expected[op.key]:
            return "stdout differs from the in-process report"
        return None


def _in_process_cli(argv: list[str]) -> bytes:
    _import_fuzzydfa()
    from fuzzydfa import cli

    buffer = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"in-process {argv} exited {code}")
    return buffer.getvalue().encode()


WORKLOADS = {
    "lcm-soft": lambda: LcmWorkload(crisp=False),
    "lcm-crisp": lambda: LcmWorkload(crisp=True),
    "anfis-stream": AnfisWorkload,
    "cli": CliWorkload,
}
