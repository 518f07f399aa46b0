"""One benchmark process: set up a workload, then run its timed closed loop.

Started by run.py from the checkout root, one fresh interpreter per
set-up sample and per measured run. Prints one JSON object as its last
stdout line. Modes:

  setup    set up (imports, inputs, warm-up) and report the set-up time
  measure  set up, then run ops untraced until `--seconds` of op time and one cycle
  trace    set up, then alternate untraced and traced cycles of ops
  smoke    set up, then one untraced and one traced op
  digest   set up, then one untraced cycle; report the op digests
"""

from __future__ import annotations

import time

import calibrate

# host speed just before set-up starts (see calibrate.py)
_KERNEL_BEFORE = [calibrate.sample(), calibrate.sample()]
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, os.path.abspath("src"))

import numpy  # noqa: E402

import gridflex  # noqa: E402
from gridflex import engine  # noqa: E402

import metrics  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
# Every process must end well inside the 180 s a run may take.
WALL_LIMIT_S = 150.0


def recorded_digests(name: str, seed: int) -> list[str] | None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return table.get(name, {}).get(str(seed))


class Runner:
    """Runs and checks ops of one workload, tallying failures by cause."""

    def __init__(
        self, wl, cycle: list, expected: list[str] | None, clock: calibrate.Clock | None = None
    ) -> None:
        self.wl = wl
        self.cycle = cycle
        self.expected = expected
        self.seen: dict[int, str] = {}  # first digest per cycle position
        self.attempted = 0
        self.failed = 0
        self.causes: Counter = Counter()
        self.op_times: list[float] = []
        self.clock = clock

    def run_op(self, position: int, tracer: tracing.Tracer | None = None):
        """Run and check one op; returns (op seconds, digest, exact counts)."""
        inp = self.cycle[position]
        if tracer is not None:
            tracer.op_id = self.attempted
            tracing.install_layers(tracer)
        error = None
        t0 = time.perf_counter()
        try:
            result = self.wl.op(inp)
        except Exception as exc:  # every op failure is counted, then reported
            error = exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        self.attempted += 1
        self.op_times.append(elapsed)

        digest, causes, counts = None, [], {}
        if error is not None:
            causes = [workloads.cause_of(error)]
            traceback.print_exception(error, file=sys.stderr)
        else:
            try:
                digest, causes, counts = self.wl.check(inp, result)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                causes = ["check.other_errors"]
        if digest is not None:
            reference = (
                self.expected[position]
                if self.expected is not None
                else self.seen.setdefault(position, digest)
            )
            if digest != reference:
                causes.append("check.digest_mismatch")
        if causes:
            self.failed += 1
            self.causes.update(causes)
        if self.clock is not None:
            self.clock.after_op(elapsed)  # outside the timed region, after the checks
        return elapsed, digest, counts


def set_up(args, workdir: Path, tracer: tracing.Tracer | None):
    """Build the op inputs and warm every op path; returns (workload, cycle, prepare trace)."""
    wl = workloads.WORKLOADS[args.workload]()
    prepared = None
    if tracer is not None:
        tracing.install_layers(tracer)
        wall0 = time.perf_counter()
    cycle = wl.prepare(args.seed, workdir)
    if tracer is not None:
        tracer.uninstall()
        prepared = {"wall_s": time.perf_counter() - wall0, **tracer.snapshot()}
        metrics.check_self_times(prepared, prepared["wall_s"], "set-up")
        tracer.reset()
    # a failing warm-up op fails again when measured, where it is counted
    warm = Runner(wl, wl.warm_up_inputs(args.seed, workdir), None)
    for position in range(len(warm.cycle)):
        warm.run_op(position)
    return wl, cycle, prepared


def untraced_cycle(runner: Runner) -> float:
    return sum(runner.run_op(p)[0] for p in range(len(runner.cycle)))


def traced_cycle(runner: Runner, tracer: tracing.Tracer, check_tracer: tracing.Tracer) -> dict:
    """One traced pass over the cycle: layer totals, span walls and exact counts."""
    totals: dict = {"wall_s": 0.0, "layers": {}, "counts": Counter(), "gauges": {}, "span_wall_s": Counter()}
    check_tracer.reset()
    for position in range(len(runner.cycle)):
        tracer.reset()
        first_span = len(tracer.spans)
        check_tracer.patch(
            engine, "replay_loss", check_tracer.wrap("engine.replay_loss", engine.replay_loss)
        )
        try:
            elapsed, _digest, counts = runner.run_op(position, tracer)
        finally:
            check_tracer.uninstall()
        snap = tracer.snapshot()
        metrics.check_self_times(snap, elapsed, f"op {runner.attempted - 1}")
        totals["wall_s"] += elapsed
        for name, layer in snap["layers"].items():
            acc = totals["layers"].setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            for key in acc:
                acc[key] += layer[key]
        totals["counts"].update(snap["counts"])
        totals["counts"].update(counts)
        for name, value in snap["gauges"].items():
            totals["gauges"][name] = max(totals["gauges"].get(name, value), value)
        for _sid, name, start, end, _parent, _op in tracer.spans[first_span:]:
            totals["span_wall_s"][name] += (end - start) / 1e9
    check = check_tracer.snapshot()["layers"].get("engine.replay_loss")
    totals["check_layers"] = {"engine.replay_loss": check} if check else {}
    return totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["setup", "measure", "trace", "smoke", "digest"], required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    tracer = tracing.Tracer() if args.mode in ("trace", "smoke") else None
    wl, cycle, prepared = set_up(args, workdir, tracer)
    setup_s = time.perf_counter() - _T0
    kernel_after = [calibrate.sample(), calibrate.sample()]
    out: dict = {
        "setup_s": setup_s,
        "setup_norm_s": calibrate.normalise_span(setup_s, _KERNEL_BEFORE, kernel_after),
        "setup_kernel_s": _KERNEL_BEFORE + kernel_after,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "gridflex": gridflex.__version__,
        "worker_count": engine.worker_count(),
        "input_seeds": wl.input_seeds(args.seed),
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    expected = None if args.mode == "digest" else recorded_digests(wl.name, args.seed)
    out["digest_recorded"] = expected is not None
    clock = calibrate.Clock()
    runner = Runner(wl, cycle, expected, clock)
    n = len(cycle)

    if args.mode == "digest":
        digests = [runner.run_op(p)[1] for p in range(n)]
        out["digests"] = digests
    elif args.mode == "measure":
        busy = 0.0
        while True:
            busy += runner.run_op(runner.attempted % n)[0]
            done = runner.attempted >= n and busy >= args.seconds  # every input ran at least once
            if done or time.perf_counter() - _T0 > WALL_LIMIT_S:
                break
    else:
        check_tracer = tracing.Tracer()
        if args.mode == "smoke":
            runner.cycle = cycle[:1]
            untraced = [untraced_cycle(runner)]
            traced = [traced_cycle(runner, tracer, check_tracer)]
        else:
            untraced, traced = [], []
            busy = 0.0
            # alternate which side goes first, so drift in machine speed cancels
            while busy < args.seconds and time.perf_counter() - _T0 < WALL_LIMIT_S / 2:
                if len(traced) % 2 == 0:
                    untraced.append(untraced_cycle(runner))
                    traced.append(traced_cycle(runner, tracer, check_tracer))
                else:
                    traced.append(traced_cycle(runner, tracer, check_tracer))
                    untraced.append(untraced_cycle(runner))
                busy += untraced[-1] + traced[-1]["wall_s"]
        out["layer_metrics"] = metrics.layer_metrics(prepared, traced, untraced)
        out["untraced_cycle_s"] = untraced
        out["traced_cycle_s"] = [t["wall_s"] for t in traced]
        if args.spans_out:
            spans = [
                {"id": s, "name": name, "start_ns": a, "end_ns": b, "parent": p, "op": op}
                for s, name, a, b, p, op in tracer.spans
            ]
            Path(args.spans_out).write_text(json.dumps(spans))

    out["op_times_s"] = runner.op_times
    out["op_norm_s"] = clock.normalise(runner.op_times)
    out["kernel_s"] = clock.samples
    out["cycle_length"] = len(runner.cycle)
    out["attempted"] = runner.attempted
    out["failed"] = runner.failed
    out["causes"] = {cause: runner.causes.get(cause, 0) for cause in workloads.CAUSES}
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
