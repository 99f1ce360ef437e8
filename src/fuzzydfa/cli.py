"""Batch front-end: parse problem files, dispatch to the solver, the lazy
code motion pipeline or the ANFIS tools, and emit JSON reports.

Exit codes: 0 success, 1 malformed/invalid input, 2 analysis did not
converge (the report is still printed).  Diagnostics go to stderr; reports
go to stdout with floats at 17 significant digits, so identical invocations
are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

# Each command imports the modules it runs, so that a run loads only those:
# ``solve`` and graph ``validate`` never load numpy.  The docstring above is
# the --help text.
from . import _jsonio
from .truth import LogicFamily, SolverConfig, TruthInterval

__all__ = ["main"]


def _emit(obj: Any) -> None:
    sys.stdout.write(_jsonio.dumps(obj) + "\n")


def _diagnose(errors, warnings=()) -> int:
    """Print the warnings, then the errors, to stderr; 1 if there are errors, else 0."""
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


def _first(*values):
    return next(v for v in values if v is not None)


def _solver_config(args, settings: _jsonio.Settings) -> SolverConfig:
    """Options override the file's settings, which override the defaults.
    Only an absent value (None) falls through; 0 is checked, not replaced."""
    logic = LogicFamily.parse(args.logic) if args.logic is not None else settings.logic
    return SolverConfig(
        family=_first(logic, LogicFamily.minmax()),
        epsilon=_first(args.epsilon, settings.epsilon, 1e-6),
        max_iters=_first(args.max_iters, settings.max_iters, 100_000),
    )


def _fmt3(value) -> str:
    if isinstance(value, TruthInterval):
        return f"[{value.lo:.3f}, {value.hi:.3f}]"
    return f"{value:.3f}"


def _cmd_solve(args) -> int:
    from . import flowgraph
    from .solver import solve, solve_interval

    graph, settings = flowgraph.load_graph_file(args.file)
    report = flowgraph.validate(graph)
    if _diagnose(report.errors, report.warnings):
        return 1
    cfg = _solver_config(args, settings)
    runner = solve_interval if settings.mode == "interval" else solve
    result = runner(graph, cfg)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(_jsonio.dumps(result.residual_trace) + "\n")
    if args.pretty:
        for node, valuation in result.final.items():
            values = ", ".join(f"{p}={_fmt3(v)}" for p, v in valuation.items())
            print(f"{node}: {values}")
        print(f"converged={result.converged} iterations={result.iterations}")
    else:
        _emit(result.to_json_dict())
    if args.seed_trace:
        _emit(result.residual_trace)
    return 0 if result.converged else 2


def _cmd_lcm(args) -> int:
    from . import lcm

    problem, settings = lcm.load_problem_file(args.file)
    mode = args.mode or settings.mode
    cfg = _solver_config(args, settings)
    try:
        result = lcm.lcm_pipeline(problem, mode, cfg=cfg)
    except ValueError as exc:  # an invalid problem carries its violations
        return _diagnose(getattr(exc, "errors", [exc]))
    if args.pretty:
        _print_lcm_pretty(result, args.motion_threshold)
    else:
        _emit(result.to_json_dict())
    return 0 if result.converged else 2


def _print_lcm_pretty(result, threshold: float) -> None:
    print(f"mode={result.mode} exprs={len(result.exprs)} converged={result.converged}")
    moves = []  # each entry whose degree (an interval's lo) reaches the threshold
    for verb, place, rows in (("insert", "on", result.insert), ("delete", "from", result.delete)):
        print(f"{verb.title()}:")
        for key, row in rows.items():
            where = "->".join(key) if verb == "insert" else key
            print(f"  {where}: " + "  ".join(map(_fmt3, row)))
            moves += [f"{verb} {result.exprs[k]!r} {place} {where} ({_fmt3(v)})"
                      for k, v in enumerate(row)
                      if (v.lo if isinstance(v, TruthInterval) else v) >= threshold]
    if moves:
        print(f"plausible motions (>= {threshold}):")
        for move in moves:
            print(f"  {move}")


def _cmd_validate(args) -> int:
    data = _jsonio.load_file(args.file)
    errors, warnings = [], []
    if isinstance(data, dict) and "blocks" in data:
        from . import lcm

        problem, settings = lcm.problem_from_json_dict(data)
        errors = lcm.validate_problem(problem, settings.mode)
    elif isinstance(data, dict) and "rules" in data:
        from . import anfis

        anfis.model_from_json_dict(data)
    else:
        from . import flowgraph

        graph, _ = flowgraph.graph_from_json_dict(data)
        report = flowgraph.validate(graph)
        errors, warnings = report.errors, report.warnings
    if _diagnose(errors, warnings):
        return 1
    print("ok")
    return 0


def _cmd_anfis_predict(args) -> int:
    from . import anfis

    model = anfis.load_model_file(args.model)
    try:
        x = [float(part) for part in args.input.split(",") if part.strip()]
    except ValueError:
        print(f"error: bad input vector {args.input!r}", file=sys.stderr)
        return 1
    prediction = anfis.predict(model, x)
    if args.pretty:
        print(f"output: {prediction.output:.6f}")
        for i, (w, nw, f) in enumerate(
            zip(prediction.firing, prediction.normalized, prediction.rule_outputs), start=1
        ):
            print(f"rule {i}: w={w:.3f} w_norm={nw:.3f} f={f:.6f}")
    else:
        _emit(
            {
                "output": prediction.output,
                "firing": prediction.firing,
                "normalized": prediction.normalized,
                "rule_outputs": prediction.rule_outputs,
            }
        )
    return 0


def _cmd_anfis_train(args) -> int:
    from . import anfis

    data = _jsonio.load_file(args.models)
    _jsonio.check_keys(data, "models", ["update", "leave"])
    update_model = anfis.model_from_json_dict(data["update"])
    leave_model = anfis.model_from_json_dict(data["leave"])
    X, labels = anfis.read_samples_csv(args.data)
    periods, period_labels = anfis.split_periods(X, labels, args.period_length)
    tc = anfis.TrainConfig(mu=args.mu, retrain_error_threshold=args.threshold)
    result = anfis.run_harness(update_model, leave_model, periods, period_labels, tc)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as handle:
            handle.write("period,error_rate\n")
            for i, rate in enumerate(result.error_rates):
                handle.write(f"{i},{format(rate, '.17g')}\n")
    if args.save_models:
        payload = {
            "update": anfis.model_to_json_dict(result.update_model),
            "leave": anfis.model_to_json_dict(result.leave_model),
        }
        with open(args.save_models, "w", encoding="utf-8") as handle:
            handle.write(_jsonio.dumps(payload) + "\n")
    _emit({"error_rates": result.error_rates})
    return 0


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1; exit 2 is reserved for non-convergence.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuzzydfa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--epsilon", type=float, default=None, help="solution tolerance (default 1e-6)")
        p.add_argument("--max-iters", type=int, default=None, help="iteration cap (default 100000)")
        p.add_argument("--logic", default=None,
                       help="minmax | product | lukasiewicz | nilpotent | frank:<s>")
        p.add_argument("--pretty", action="store_true", help="human-readable output")

    p = sub.add_parser("solve", help="solve a flow-graph problem to a fixed point")
    p.add_argument("file")
    common(p)
    p.add_argument("--trace", default=None, help="write the residual trace to this path")
    p.add_argument("--seed-trace", action="store_true",
                   help="also print the residual trace to stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("lcm", help="run the four-stage lazy code motion pipeline")
    p.add_argument("file")
    common(p)
    p.add_argument("--mode", choices=list(_jsonio.LCM_MODES), default=None,
                   help="crisp | fuzzy | interval (default: from the file)")
    p.add_argument("--motion-threshold", type=float, default=0.95,
                   help="degree above which --pretty reports a motion as plausible")
    p.set_defaults(func=_cmd_lcm)

    p = sub.add_parser("validate", help="validate a problem or model file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("anfis-predict", help="evaluate an ANFIS model on one input")
    p.add_argument("model")
    p.add_argument("--input", required=True, help="comma-separated input vector")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_anfis_predict)

    p = sub.add_parser("anfis-train", help="run the update/leave decision harness")
    p.add_argument("models", help="JSON file with 'update' and 'leave' models")
    p.add_argument("data", help="CSV with columns x1..xn,label")
    p.add_argument("--mu", type=float, required=True, help="LMS step size")
    p.add_argument("--threshold", type=float, default=0.8,
                   help="period error rate that triggers a least-squares refit")
    p.add_argument("--period-length", type=int, default=25)
    p.add_argument("--csv-out", default=None, help="write per-period error rates as CSV")
    p.add_argument("--save-models", default=None, help="write the adapted models as JSON")
    p.set_defaults(func=_cmd_anfis_train)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # FileFormatError and NoRuleFiresError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
