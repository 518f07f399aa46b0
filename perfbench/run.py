"""gridflex benchmark: one workload per call, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload gen-1600 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke            # one op per workload, self-checks

Each run starts fresh interpreters (perfbench/worker.py): several that
only set up, for the median set-up time, then one that sets up and runs
the closed loop (one client; the next op starts when the previous one
and its checks are done). The experiment pool is pinned to the
affinity core count through GRIDFLEX_THREADS. With `--trace 0` the last
stdout line carries the end-to-end metrics, their times normalised for
host speed (calibrate.py); with `--trace 1` it carries
the per-layer metrics of traced cycles, and the tracing overhead against
untraced cycles of the same run. The line before it is the provenance
record; both are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BENCHMARK = ROOT / "BENCHMARK.json"
WORKER = HERE / "worker.py"
# workload -> the seed of its fixed default inputs (the roadmap's GenSpec seed 3,
# EV completion seeds 0-9, sample_grid seeds 0-3, corpus pick seed 0)
DEFAULT_SEEDS = {"gen-1600": 3, "ev-compare": 0, "mobility-sweep": 0, "oracle-micro": 0}
SETUP_SAMPLES = 5  # set-up time is the median over this many fresh interpreters
DEADLINE_S = 175.0  # a run must end within 180 s; children are killed past this
THREADS = str(len(os.sched_getaffinity(0)))  # experiment pool width: the affinity core count
_STARTED = time.monotonic()


class BenchError(RuntimeError):
    """The benchmark could not produce a valid result."""


def git_commit(root: Path) -> str:
    """HEAD of a git checkout at `root`, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child(mode: str, workload: str, seed: int, seconds: float, extra: list[str] = ()) -> dict:
    env = dict(os.environ)
    env["GRIDFLEX_THREADS"] = THREADS
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(WORKER), "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), *extra,
    ]
    remaining = DEADLINE_S - (time.monotonic() - _STARTED)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=max(remaining, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} timed out") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def declared(kind: str) -> dict[str, str]:
    doc = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def check_declared(metrics: dict, kind: str) -> None:
    """Every metric BENCHMARK.json declares is present, with its unit, and no other."""
    want = declared(kind)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise BenchError(f"{kind} metrics differ: missing={missing} extra={extra} unit={wrong}")


def as_metrics(pairs: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def per_layer(result: dict) -> dict:
    """A traced worker's layer metrics plus its failed-op counts by cause."""
    metrics = as_metrics(result["layer_metrics"])
    metrics.update({cause: {"value": n, "unit": "count"} for cause, n in result["causes"].items()})
    return metrics


def provenance(workload: str, seed: int, seconds: float, trace: int, load: tuple, first: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "input_seeds": first["input_seeds"],
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(ROOT),
        "python": first["python"],
        "numpy": first["numpy"],
        "gridflex": first["gridflex"],
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "GRIDFLEX_THREADS": THREADS,
        "worker_count": first["worker_count"],
        "loadavg_at_start": load,
        "digest_recorded": first.get("digest_recorded"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    from metrics import TAIL_PERCENTILE, end_to_end, tail

    load = os.getloadavg()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-s{seed}-t{trace}"
    if trace:
        spans = out_dir / f"spans-{stem}.json"
        result = child("trace", workload, seed, seconds, ["--spans-out", str(spans)])
        metrics = per_layer(result)
        check_declared(metrics, "per_layer")
        detail = {
            "untraced_cycle_s": result["untraced_cycle_s"],
            "traced_cycle_s": result["traced_cycle_s"],
            "spans_file": str(spans.relative_to(ROOT)),
        }
    else:
        setups = [child("setup", workload, seed, seconds) for _ in range(SETUP_SAMPLES - 1)]
        result = child("measure", workload, seed, seconds)
        samples = [s["setup_norm_s"] for s in setups + [result]]
        times = result["op_norm_s"]
        metrics = as_metrics(
            end_to_end(times, result["cycle_length"], samples, result["peak_rss_mib"])
        )
        check_declared(metrics, "end_to_end")
        tail_s, beyond = tail(times)
        detail = {
            "setup_samples_s": samples,
            "setup_raw_s": [s["setup_s"] for s in setups + [result]],
            "setup_kernel_s": [s["setup_kernel_s"] for s in setups + [result]],
            "kernel_s": result["kernel_s"],
            "op_count": len(times),
            "cycle_length": result["cycle_length"],
            "op_tail_s": tail_s,
            "op_tail_percentile": TAIL_PERCENTILE,
            "ops_beyond_tail": beyond,
            "op_times_s": times,
            "op_raw_s": result["op_times_s"],
        }
    detail["failed_frac"] = result["failed"] / result["attempted"]
    detail["causes"] = result["causes"]
    record = {
        "provenance": provenance(workload, seed, seconds, trace, load, result),
        "detail": detail,
        "result": {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        },
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=2))
    return record


def smoke(workloads: list[str], seed: int | None) -> bool:
    """One untraced and one traced op per workload, with every self-check."""
    from metrics import end_to_end

    ok = True
    for workload in workloads:
        s = DEFAULT_SEEDS[workload] if seed is None else seed
        try:
            result = child("smoke", workload, s, 0)
            e2e = end_to_end(
                result["op_norm_s"], result["cycle_length"], [result["setup_norm_s"]], result["peak_rss_mib"]
            )
            check_declared(as_metrics(e2e), "end_to_end")
            check_declared(per_layer(result), "per_layer")
            if result["failed"]:
                raise BenchError(f"failed ops: {result['causes']}")
            print(f"smoke ok   {workload} seed={s} ops={result['attempted']}")
        except BenchError as exc:
            ok = False
            print(f"smoke FAIL {workload} seed={s}: {exc}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description="gridflex benchmark")
    parser.add_argument("--workload", choices=list(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's fixed input)")
    parser.add_argument("--seconds", type=float, default=20.0, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="one op per workload with self-checks")
    args = parser.parse_args()

    if not (ROOT / "src" / "gridflex" / "__init__.py").is_file():
        print("run from the root of a gridflex checkout (src/gridflex not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    if args.smoke:
        return 0 if smoke([args.workload] if args.workload else list(DEFAULT_SEEDS), args.seed) else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    try:
        record = run_workload(args.workload, seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    record["provenance"]["run_wall_s"] = time.monotonic() - _STARTED
    print(json.dumps({"provenance": record["provenance"], "detail": {
        k: v for k, v in record["detail"].items() if k not in ("op_times_s", "op_raw_s", "kernel_s")}}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
