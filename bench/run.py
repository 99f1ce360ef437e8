"""Benchmark of fuzzydfa: one seeded, closed-loop, single-client workload
per run, every output checked.

    python3 bench/run.py --workload lcm-soft --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics, measured with no wrappers installed; gated timings are
scaled to a nominal machine speed (see ``speed.py``).  With ``--trace 1``
the run wraps each layer's public functions (see ``spans.py``) and reports
the per-layer metrics instead.  Lines before the last one give sample
counts, percentiles, unscaled times and context.  Workloads and their
choice are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import workloads  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402

PROBE_EVERY = 2.0  # seconds of loop between set-up probes
CLI_NAMES = tuple(workloads.CLI_COMMANDS)
SIZES = tuple(gen.SIZES)
MODES = ("crisp", "fuzzy", "interval")


def _no_span(name, op=None):
    return nullcontext()


# -- set-up and import probes ------------------------------------------------------

_PROBE = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import fuzzydfa
sys.stdout.write("imported %d\\n" % ("numpy" in sys.modules))
sys.stdout.flush()
import workloads
workloads.WORKLOADS[{workload!r}]().inputs({seed!r})
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def probe_setup(workload: str, seed: int) -> tuple[float, float, bool]:
    """A fresh interpreter imports fuzzydfa and makes the workload's inputs.

    Returns the seconds from process start until the import finished and
    until the inputs were in memory, and whether numpy got imported.
    """
    code = _PROBE.format(src=str(workloads.SRC), bench=str(BENCH), workload=workload, seed=seed)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=workloads.ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        imported = time.perf_counter()
        second = proc.stdout.readline()
        ready = time.perf_counter()
        _, err = proc.communicate()
    if proc.returncode != 0 or not first.startswith("imported") or second != "ready\n":
        raise RuntimeError(f"set-up probe failed:\n{err}")
    return imported - start, ready - start, first.split()[1] == "1"


# -- the closed loop -----------------------------------------------------------------


def closed_loop(load, ops, cycle: int, seconds: float, span, probe, clock: speed.Speed):
    """Run ``ops`` in order, wrapping round, in whole cycles of ``cycle``
    operations, and stop at the cycle boundary nearest to ``seconds`` of
    operation time (at least one cycle).  ``probe`` runs between operations
    about every ``PROBE_EVERY`` seconds and is not timed as operation time.
    Returns the per-operation records (op, output or None, seconds, error,
    seconds at the nominal speed)."""
    records = []
    first: dict[int, object] = {}
    busy = cycle_start = 0.0
    last_probe = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        clock.start()
        try:
            with span("op", i):
                out, error = load.run(op, span), None
        except Exception:  # an operation that raises counts as failed
            out, error = None, traceback.format_exc(limit=3)
        finally:
            t0, t1, elapsed = clock.stop()
        busy += elapsed
        # Keep one copy of each distinct output, so memory does not grow
        # with the number of operations a run completes.
        if op.index not in first:
            first[op.index] = out
        elif first[op.index] == out:
            out = first[op.index]
        records.append([op, out, elapsed, error, (t0, t1)])
        i += 1
        if t1 - last_probe >= PROBE_EVERY:
            probe()
            last_probe = time.perf_counter()
        if i % cycle == 0:
            last_cycle, cycle_start = busy - cycle_start, busy
            if busy + last_cycle / 2 >= seconds:
                break
    clock.sample()
    for record in records:
        record[4] = clock.scale(record[2], *record[4])
    return records


def check_records(load, records) -> None:
    """Fill in the error of every record whose output fails its check."""
    if hasattr(load, "check_all"):
        ok = [r for r in records if r[3] is None]
        for record, error in zip(ok, load.check_all([(r[0], r[1]) for r in ok])):
            record[3] = error
        return
    verdicts: dict[tuple[int, int], str | None] = {}
    for record in records:
        if record[3] is None:
            key = (record[0].index, id(record[1]))
            if key not in verdicts:
                try:
                    verdicts[key] = load.check(record[0], record[1])
                except Exception:
                    verdicts[key] = "check raised:\n" + traceback.format_exc(limit=3)
            record[3] = verdicts[key]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value (the maximum when there are fewer than eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def tracing_overhead(load, ops) -> float:
    """Per cent by which the workload's calibration slice runs slower with
    the wrappers installed: the fastest of three passes each way,
    alternating, so that a slow phase of the machine does not set it."""
    calib = load.calibration(ops)
    if not calib:
        return 0.0
    passes: dict[bool, list[float]] = {False: [], True: []}
    for traced in (False, True) * 3:
        tracer = Tracer()
        if traced:
            load.wrap(tracer)
        try:
            span = tracer.span if traced else _no_span
            t0 = time.perf_counter()
            for op in calib:
                load.run(op, span)
            passes[traced].append(time.perf_counter() - t0)
        finally:
            tracer.restore()
            load.reset()
    return 100.0 * (min(passes[True]) / min(passes[False]) - 1.0)


def table_pass(load, seed: int, first_index: int):
    """Time ``lcm_pipeline`` on the workload's table problems, traced.
    Returns the records, for checking, and the seconds per (size, mode)."""
    tracer = Tracer()
    load.wrap(tracer)
    records = []
    try:
        for k, op in enumerate(load.table(seed, first_index)):
            try:
                with tracer.span("op", k):
                    out, error = load.run(op, tracer.span), None
            except Exception:  # counts as failed, as in the loop
                out, error = None, traceback.format_exc(limit=3)
            records.append([op, out, 0.0, error])
    finally:
        tracer.restore()
    times: dict[tuple[str, str], list[float]] = {}
    op_ids = [s[4] for s in tracer.spans if s[0] == "lcm.pipeline"]
    for op_id, seconds in zip(op_ids, tracer.durations("lcm.pipeline")):
        size, mode, _ = records[op_id][0].key.split(".", 2)
        times.setdefault((size, mode), []).append(seconds)
    return records, times


# -- metrics -----------------------------------------------------------------------


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(load, name, records, setup, clock: speed.Speed, rss: float) -> tuple[dict, dict]:
    latencies = [r[2] for r in records]
    n = len(records)
    failed = sum(1 for r in records if r[3] is not None)
    pct, tail_s = tail(latencies)
    by_kind: dict[str, list[list]] = {}
    for r in records:
        by_kind.setdefault(r[0].kind, []).append(r)
    kind_ms = {kind: 1e3 * statistics.fmean(r[4] for r in rs) for kind, rs in by_kind.items()}
    raw_kind_ms = {kind: 1e3 * statistics.fmean(r[2] for r in rs) for kind, rs in by_kind.items()}
    throughput = n / sum(latencies)
    metrics = {
        # Each kind weighs the same, whatever its share of the operations.
        "latency_geomean_ms": (statistics.geometric_mean(kind_ms.values()), "ms"),
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_share": ((n - failed) / n, "ratio"),
    }
    per_s, p50, tail_name = load.names
    # Throughput, median and tail are reported here but not gated: see bench/README.md.
    detail = {
        per_s: throughput,
        p50: 1e3 * statistics.median(latencies),
        tail_name: 1e3 * tail_s,
        "tail_percentile": round(pct, 2),
        "samples": n,
        "kind_mean_ms": kind_ms,
        "kind_samples": {kind: len(rs) for kind, rs in by_kind.items()},
        "raw_latency_geomean_ms": statistics.geometric_mean(raw_kind_ms.values()),
        "raw_kind_mean_ms": raw_kind_ms,
        "raw_setup_s": statistics.median(raw for _, raw in setup),
        "setup_samples": len(setup),
        "reference_ms": {"median": 1e3 * statistics.median(clock.samples),
                         "min": 1e3 * min(clock.samples), "max": 1e3 * max(clock.samples),
                         "samples": len(clock.samples)},
        "failed_share": failed / n,
        "failed": failed,
        "attempted": n,
        "loop_busy_s": sum(latencies),
    }
    if name == "anfis-stream":
        detail["anfis_samples_per_s"] = throughput * workloads.ANFIS_PERIOD
        rates = [r[1] for r in records if r[3] is None]
        detail["refit_share"] = sum(rate >= workloads.ANFIS_THRESHOLD for rate in rates) / n
    return metrics, detail


def per_layer(name, records, tracer: Tracer, table, imports, bare, overhead) -> tuple[dict, dict]:
    n = len(records)
    per_op = 1.0 / n
    metrics: dict[str, tuple[float, str]] = {}
    detail: dict[str, object] = {"samples": n, "missing": tracer.missing}

    import_s = [probe[0] for probe in imports]
    metrics["import.fuzzydfa_ms"] = (1e3 * (statistics.median(import_s) - statistics.median(bare)), "ms")
    metrics["import.numpy_loaded"] = (float(any(probe[2] for probe in imports)), "flag")

    for command in CLI_NAMES:
        times = [r[2] for r in records if name == "cli" and r[0].key == command]
        metrics[f"cli.{command}.wall_ms"] = (1e3 * statistics.median(times) if times else 0.0, "ms")
        detail[f"cli.{command}.samples"] = len(times)

    metrics["jsonio.parse.busy_ms"] = (tracer.busy_ms("jsonio.parse") * per_op, "ms")
    metrics["jsonio.serialise.busy_ms"] = (tracer.busy_ms("jsonio.serialise") * per_op, "ms")

    metrics["lcm.validate_problem.calls"] = (tracer.calls("lcm.validate_problem") * per_op, "count")
    metrics["lcm.validate_problem.busy_ms"] = (tracer.busy_ms("lcm.validate_problem") * per_op, "ms")
    for stage in ("availability", "anticipatability", "later"):
        metrics[f"lcm.{stage}.self_ms"] = (tracer.self_ms(f"lcm.{stage}") * per_op, "ms")
    for stage in ("earliest", "insert_delete"):
        metrics[f"lcm.{stage}.busy_ms"] = (tracer.busy_ms(f"lcm.{stage}") * per_op, "ms")

    # The table pass (lcm-soft only): minmax, as the baseline table.
    for size in SIZES:
        for mode in MODES:
            times = table.get((size, mode), [])
            metrics[f"lcm.pipeline.{size}.{mode}.p50_ms"] = (
                1e3 * statistics.median(times) if times else 0.0, "ms")
            detail[f"lcm.pipeline.{size}.{mode}.samples"] = len(times)

    counts = tracer.counts
    solver_ms = tracer.busy_ms("solver.solve")
    for counter in ("solves", "sweeps", "unconverged", "edge_evals"):
        metrics[f"solver.{counter}"] = (counts[f"solver.{counter}"] * per_op, "count")
    metrics["solver.busy_ms"] = (solver_ms * per_op, "ms")
    sweeps = counts["solver.sweeps"]
    metrics["solver.sweep_us"] = (1e3 * solver_ms / sweeps if sweeps else 0.0, "us")
    metrics["flowgraph.validate.calls"] = (tracer.calls("flowgraph.validate") * per_op, "count")
    metrics["flowgraph.validate.busy_ms"] = (tracer.busy_ms("flowgraph.validate") * per_op, "ms")
    # Counted from outside: one formula evaluation per in-edge per sweep.
    metrics["formula.evals"] = (counts["solver.edge_evals"] * per_op, "count")

    for fn in ("predict", "lms_update"):
        metrics[f"anfis.{fn}.calls"] = (tracer.calls(f"anfis.{fn}") * per_op, "count")
        metrics[f"anfis.{fn}.self_ms"] = (tracer.self_ms(f"anfis.{fn}") * per_op, "ms")
    metrics["anfis.ls_fit.calls"] = (tracer.calls("anfis.ls_fit") * per_op, "count")
    metrics["anfis.ls_fit.busy_ms"] = (tracer.busy_ms("anfis.ls_fit") * per_op, "ms")
    refits = 0
    if name == "anfis-stream":
        refits = sum(1 for r in records if r[3] is None and r[1] >= workloads.ANFIS_THRESHOLD)
    metrics["anfis.refits"] = (refits * per_op, "count")

    metrics["trace.overhead_pct"] = (overhead, "%")
    detail["note"] = "counts and busy/self times are per operation"
    return metrics, detail


def machine() -> dict:
    import numpy  # a dependency of fuzzydfa, so already imported

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


# -- main -----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "fuzzydfa").is_dir():
        print(f"error: no package at {workloads.SRC / 'fuzzydfa'}; run from a checkout",
              file=sys.stderr)
        return 2

    # One core for the run and every process it starts: the reference loop
    # says how fast the core it runs on is, and the two cores of a shared
    # machine need not run at the same speed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    imports, setup = [], []
    starts = speed.Speed(starts_processes=True, inside=False)

    def probe() -> None:
        starts.sample()
        started = time.perf_counter()
        imports.append(probe_setup(args.workload, args.seed))
        starts.sample()
        ready = imports[-1][1]
        setup.append((starts.scale(ready, started, started + ready), ready))

    # Set-up is probed before, during and after the loop, so that one slow
    # phase of a shared machine weighs less in the median.
    probe_setup(args.workload, args.seed)  # warm-up: bytecode caches
    probe()

    load = workloads.WORKLOADS[args.workload]()
    ops = load.inputs(args.seed)
    # The traced run reports no scaled times, and samples inside an
    # operation would count in its spans.
    clock = speed.Speed(load.starts_processes, inside=not args.trace)

    tracer = Tracer()
    span = _no_span
    overhead = 0.0
    if args.trace:
        overhead = tracing_overhead(load, ops)
        load.wrap(tracer)
        span = tracer.span
    try:
        records = closed_loop(load, ops, load.cycle, args.seconds, span, probe, clock)
    finally:
        tracer.restore()
    rss = peak_rss_mb()
    probe()
    check_records(load, records)
    table, table_records = {}, []
    if args.trace and args.workload == "lcm-soft":
        table_records, table = table_pass(load, args.seed, len(ops))
        check_records(load, table_records)

    for record in records + table_records:
        if record[3] is not None:
            print(f"FAILED {args.workload} op {record[0].index} ({record[0].key}): {record[3]}",
                  file=sys.stderr)
            break

    if args.trace:
        metrics, detail = per_layer(args.workload, records, tracer, table, imports, starts.samples, overhead)
    else:
        metrics, detail = end_to_end(load, args.workload, records, setup, clock, rss)
    failed = sum(1 for r in records + table_records if r[3] is not None)
    detail.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "start_reference_ms": 1e3 * statistics.median(starts.samples),
                   "machine": machine()})
    for key, (value, unit) in metrics.items():
        print(f"{key:36s} {value:14.6g} {unit}")
    if not args.trace:
        per_s, p50, tail_name = load.names
        n = detail["samples"]
        print(f"{per_s:36s} {detail[per_s]:14.6g} 1/s  ({n} operations)")
        for kind, ms in detail["kind_mean_ms"].items():
            print(f"{'mean_ms.' + kind:36s} {ms:14.6g} ms   ({detail['kind_samples'][kind]} samples)")
        print(f"{p50:36s} {detail[p50]:14.6g} ms   ({n} samples)")
        print(f"{tail_name:36s} {detail[tail_name]:14.6g} ms   "
              f"(p{detail['tail_percentile']}, {n} samples)")
        print(f"{'failed_share':36s} {detail['failed_share']:14.6g}      "
              f"({detail['failed']} of {detail['attempted']})")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records) + len(table_records),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
