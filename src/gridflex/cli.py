"""Command-line front end.

Subcommands: generate, ingest, run, validate, solve-exact, and the
experiment suites. Exit codes: 0 success, 1 usage error (bad argument,
unreadable file or unwritable output), 2 validation or generation
failure, or a malformed or undecodable input document, 3 exact-solver
cap exceeded. Table output is rendered from the same result objects that
JSON output serializes, and all JSON is compact and strict. Every
command writes through `_write`: `run` streams `RunResult.json_chunks`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Iterable

from . import engine, exact, workload
from .model import ScenarioFormatError, load_scenario, printable_id, read_json, scenario_to_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CAP = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A usage error is one stderr line; `-h` still shows the usage."""
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _counts(text: str) -> list[int]:
    return [_positive_int(c) for c in text.split(",")]


def _classes(text: str) -> tuple[str, ...]:
    combo = tuple(text.split(","))
    for cls in combo:
        if cls not in workload.LOAD_CLASSES:
            raise argparse.ArgumentTypeError(
                f"unknown load class {cls!r}; choose from {sorted(workload.LOAD_CLASSES)}"
            )
    return combo


def _mobile_fraction(text: str) -> float:
    try:
        value = float(text)
        workload.check_mobile_fraction(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


class _StdoutError(Exception):
    """stdout is closed or a write to it failed."""


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write `chunks` in order to the file `out`, or to stdout when `out`
    is None. A file error propagates as its `OSError`; a stdout error
    is raised as `_StdoutError`, since it names no file."""
    if out:
        with open(out, "w") as f:
            f.writelines(chunks)
        return
    if sys.stdout is None:
        raise _StdoutError("stdout is closed")
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        # dropped, so the interpreter's exit flush does not try the
        # unwritten rest again and report it a second time
        sys.stdout = None
        raise _StdoutError(exc.strerror or str(exc)) from exc


def _write_json(doc: dict, out: str | None) -> None:
    # compact: with `indent` set the json module drops to its pure-Python
    # encoder; strict: NaN and Infinity are not JSON
    _write((json.dumps(doc, sort_keys=True, allow_nan=False), "\n"), out)


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = workload.GenSpec(
        num_devices=args.devices,
        class_combo=args.classes,
        mobile_fraction=args.mobile_fraction,
        seed=args.seed,
    )
    scenario = workload.generate(spec)
    _write_json(scenario_to_dict(scenario), args.out)
    return EXIT_OK


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.sessions == "bundled":
        text = workload.bundled_replica_text()
    else:
        text = Path(args.sessions).read_text()
    records, skipped = workload.parse_sessions(text)
    spec = workload.IngestSpec(seed=args.seed, mobile_fraction=args.mobile_fraction)
    scenario, dropped = workload.ingest_sessions(records, spec)
    # noted after the write, so a failed write is the call's only stderr line
    _write_json(scenario_to_dict(scenario), args.out)
    if skipped or dropped:
        print(f"skipped {skipped} records, dropped {dropped} sessions", file=sys.stderr)
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    mobility = None if args.mobility is None else args.mobility == "on"
    result = engine.run(scenario, args.scheduler, mobility=mobility)
    if args.format == "table":
        _write((_render_run_table(result),), args.out)
    else:
        # the `_write_json` text of `result.to_dict()`, a decision row at
        # a time: the whole document is never built as one string
        _write(itertools.chain(result.json_chunks(), ("\n",)), args.out)
    return EXIT_OK


def _render_run_table(result: engine.RunResult) -> str:
    lines = [
        f"scenario   {printable_id(result.scenario_id)}",
        f"scheduler  {result.scheduler} (mobility={'on' if result.mobility_enabled else 'off'})",
        f"total loss {result.total_loss:.4f}",
        "",
        "device\tloss\tprogress_kwh\tcompleted",
    ]
    for dev_id in sorted(result.per_device):
        row = result.per_device[dev_id]
        lines.append(
            f"{printable_id(dev_id)}\t{row['loss_total']:.4f}\t{row['progress_kwh']:.2f}"
            f"\t{'yes' if row['completed'] else 'no'}"
        )
    return "\n".join(lines) + "\n"


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    engine.check_scenario(scenario)
    doc = read_json(args.result)
    decisions = engine.decisions_from_dict(doc)
    report = exact.validate_schedule(decisions, scenario.config, list(scenario.devices))
    _write((report.summary(), "\n"), None)
    return EXIT_OK if report.all_pass else EXIT_VALIDATION


def _cmd_solve_exact(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    engine.check_scenario(scenario)
    instance = exact.ExactInstance(scenario, exact.ExactCaps(node_budget=args.node_budget))
    result = exact.solve_exact(instance)
    doc = {
        "scenario_id": scenario.scenario_id,
        "optimal_loss": result.loss,
        "nodes": result.nodes,
        "decisions": engine.encode_decisions(result.decisions),
    }
    _write_json(doc, args.out)
    return EXIT_OK


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _mobility_delta(args: argparse.Namespace) -> tuple[dict, str]:
    specs = engine.sample_grid(args.counts, args.samples, seed=args.seed)
    summary = engine.mobility_delta_experiment(specs)
    return summary.to_dict(), engine.metrics_table(summary)


def _baseline_compare(args: argparse.Namespace) -> tuple[dict, str]:
    scenario = load_scenario(args.scenario)
    results = engine.baseline_compare(scenario)
    report = engine.improvement_report(results)
    doc = {
        "scenario_id": scenario.scenario_id,
        "losses": {name: r.total_loss for name, r in results.items()},
        "improvement_pct": report,
    }
    lines = [f"scenario {printable_id(scenario.scenario_id)}"]
    for name, loss in doc["losses"].items():
        lines.append(f"{name}\t{loss:.2f}")
    for name, pct in report.items():
        shown = f"{pct:.2f}%" if isinstance(pct, float) else pct
        lines.append(f"improvement over {name}\t{shown}")
    return doc, "\n".join(lines) + "\n"


def _oracle_gap(args: argparse.Namespace) -> tuple[dict, str]:
    report = engine.oracle_gap_experiment(args.samples, seed=args.seed)
    doc = {
        # an infinite ratio (exact loss 0, heuristic's not) is written as null
        "rows": [{**r.__dict__, "ratio": _finite_or_none(r.ratio)} for r in report.rows],
        "median_ratio": _finite_or_none(report.median_ratio),
        "max_ratio": _finite_or_none(report.max_ratio),
    }
    lines = ["scenario\texact\theuristic\tratio"]
    for r in report.rows:
        lines.append(
            f"{r.scenario_id}\t{r.exact_loss:.4f}\t{r.heuristic_loss:.4f}\t{r.ratio:.3f}"
        )
    lines.append(f"median ratio\t{report.median_ratio:.3f}")
    lines.append(f"max ratio\t{report.max_ratio:.3f}")
    return doc, "\n".join(lines) + "\n"


def _cmd_experiment(args: argparse.Namespace) -> int:
    doc, table = args.suite(args)
    if args.format == "table":
        _write((table,), args.out)
    else:
        _write_json(doc, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridflex",
        description="Multi-aggregator demand-side scheduling simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic scenario")
    p_gen.add_argument("--devices", type=_positive_int, required=True)
    p_gen.add_argument(
        "--classes", type=_classes, default="L,L,M,M,H", help="comma-separated load classes"
    )
    p_gen.add_argument("--mobile-fraction", type=_mobile_fraction, default=0.5)
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_generate)

    p_ing = sub.add_parser("ingest", help="ingest charging session records")
    p_ing.add_argument("sessions", help="CSV path, or 'bundled' for the packaged replica")
    p_ing.add_argument("--seed", type=_seed, default=0)
    p_ing.add_argument("--mobile-fraction", type=_mobile_fraction, default=0.5)
    p_ing.add_argument("--out", default=None)
    p_ing.set_defaults(func=_cmd_ingest)

    p_run = sub.add_parser("run", help="run one scheduler over a scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--scheduler", choices=sorted(engine.baselines.SCHEDULERS), default="heuristic")
    p_run.add_argument("--mobility", choices=["on", "off"], default=None)
    p_run.add_argument("--format", choices=["json", "table"], default="json")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a run result against a scenario")
    p_val.add_argument("scenario")
    p_val.add_argument("result")
    p_val.set_defaults(func=_cmd_validate)

    p_exact = sub.add_parser("solve-exact", help="exact optimum for a micro scenario")
    p_exact.add_argument("scenario")
    p_exact.add_argument("--node-budget", type=_positive_int, default=10**8)
    p_exact.add_argument("--out", default=None)
    p_exact.set_defaults(func=_cmd_solve_exact)

    p_exp = sub.add_parser("experiment", help="run an experiment suite")
    suites = p_exp.add_subparsers(metavar="suite", required=True)
    # each suite takes only the flags it reads, so a foreign one is a usage error
    p_delta = suites.add_parser("mobility-delta", help="loss with and without mobility")
    p_delta.add_argument("--counts", type=_counts, default="20,40,60,80,100")
    p_delta.add_argument("--samples", type=_positive_int, default=10)
    p_delta.add_argument("--seed", type=_seed, default=0)
    p_cmp = suites.add_parser("baseline-compare", help="heuristic against EDF and HP")
    p_cmp.add_argument("--scenario", required=True)
    p_gap = suites.add_parser("oracle-gap", help="heuristic against the exact optimum")
    p_gap.add_argument("--samples", type=_positive_int, default=10)
    p_gap.add_argument("--seed", type=_seed, default=0)
    for p_suite, suite in (
        (p_delta, _mobility_delta), (p_cmp, _baseline_compare), (p_gap, _oracle_gap)
    ):
        p_suite.add_argument("--format", choices=["json", "table"], default="json")
        p_suite.add_argument("--out", default=None)
        p_suite.set_defaults(func=_cmd_experiment, suite=suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _StdoutError as exc:
        print(f"cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot open {printable_id(str(exc.filename))}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (UnicodeDecodeError, ScenarioFormatError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except workload.GenerationError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except exact.ScheduleFormatError as exc:
        print(f"malformed schedule: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except engine.InvalidScenarioError as exc:
        print(f"scenario invalid: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except engine.InfeasibleRunError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except exact.CapExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
