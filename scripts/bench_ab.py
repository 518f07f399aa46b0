#!/usr/bin/env python3
"""Record interleaved parent/change benchmark pairs as `BENCH_<pr>.json`.

    python3 scripts/bench_ab.py --pr 26 [--pairs 5] [--claim ev-compare:op_p50_s]

The parent is HEAD and the change is the working tree's tracked files on
top of it (`git stash create`, which moves no ref; stage new files
first), so run it before committing the change. Each side is extracted
from git (`git archive`) into its own directory under a temporary one,
so a side holds exactly its committed files and no build leftovers.

Pair i of every workload in BENCHMARK.json runs `perfbench/run.py
--workload W --seed i --seconds S --trace 0` once in each side's
directory, one run at a time, the parent first on odd pairs and the
change first on even ones; S is BENCHMARK.json's `run_seconds`. The
record holds every run's provenance, detail (without the raw op times)
and result lines, and per workload and end-to-end metric each side's
median and quartiles (`statistics.quantiles(n=4, method='inclusive')`),
the pairs the change won (strictly better in the metric's direction)
and the median change as a fraction of the parent's. It is rewritten
after every pair, so an interrupted recording keeps the pairs it
finished. Nothing under `perfbench/` is changed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
RUN_TIMEOUT_S = 240  # run.py ends its own children within 180 s


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def extract(rev: str, into: Path) -> None:
    """The committed files of `rev` under `into`."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run_side(side_dir: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `side_dir`: its last two stdout lines, parsed."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=side_dir, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
    )
    record = {"exit_code": proc.returncode, "wall_s": round(time.monotonic() - t0, 1)}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and len(lines) >= 2:
        head = json.loads(lines[-2])
        record.update(
            provenance=head["provenance"], detail=head["detail"], result=json.loads(lines[-1])
        )
    return record


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict]) -> dict:
    """Per workload: pairs, seeds, correctness and each end-to-end metric's
    statistics over the pairs both of whose runs finished."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload and "result" in r:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
        mine = [r for r in runs if r["workload"] == workload]
        metrics = {}
        for name, better in BETTER.items() if pairs else ():
            value = {
                side: [by_pair[p][side]["result"]["metrics"][name]["value"] for p in pairs]
                for side in ("parent", "change")
            }
            sign = 1 if better == "higher" else -1
            won = sum(sign * (c - p) > 0 for p, c in zip(value["parent"], value["change"]))
            parent, change = quartiles(value["parent"]), quartiles(value["change"])
            metrics[name] = {
                "better": better,
                "parent": parent,
                "change": change,
                "change_better_pairs": f"{won}/{len(pairs)}",
                "median_change_frac": change["median"] / parent["median"] - 1,
                "parent_iqr": parent["q3"] - parent["q1"],
            }
        summary[workload] = {
            "pairs": len(pairs),
            "seeds": sorted({by_pair[p]["parent"]["seed"] for p in pairs}),
            "all_correct": all(r.get("result", {}).get("correct", False) for r in mine),
            "failed_ops": sum(r.get("result", {}).get("failed", 0) for r in mine),
            "metrics": metrics,
        }
    return summary


def claim_of(summary: dict, claim: str) -> dict | None:
    """The claimed metric's statistics, and whether the change won at least
    nine pairs in ten by a median shift beyond the parent's quartile spread."""
    workload, _, metric = claim.partition(":")
    stats = summary.get(workload, {}).get("metrics", {}).get(metric)
    if stats is None:
        return None
    won, pairs = map(int, stats["change_better_pairs"].split("/"))
    sign = 1 if stats["better"] == "higher" else -1
    shift = sign * (stats["change"]["median"] - stats["parent"]["median"])
    return {
        "workload": workload,
        "metric": metric,
        "parent": stats["parent"],
        "change": stats["change"],
        "median_change_frac": stats["median_change_frac"],
        "change_better_pairs": stats["change_better_pairs"],
        "parent_iqr": stats["parent_iqr"],
        "met": won >= 0.9 * pairs and shift > stats["parent_iqr"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=5, help="pairs per workload (at least 5)")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    args = parser.parse_args()
    if args.pairs < 5:
        parser.error("--pairs must be at least 5")

    parent = git("rev-parse", "HEAD")
    change = git("stash", "create") or parent
    seconds = BENCHMARK["run_seconds"]
    out = ROOT / f"BENCH_{args.pr}.json"
    doc = {
        "what": "Interleaved parent/change runs of the gridflex benchmark, one result line per run",
        "parent_commit": parent,
        "change_commit": change,
        "command": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
        ),
        "protocol": (
            "scripts/bench_ab.py. Each side runs from its own `git archive` extraction of its "
            "commit (for the change, the working tree's tracked files on top of the parent, "
            "taken with git stash create), one run at a time on the same host. "
            f"Pair i of each workload uses seed i on both sides ({args.pairs} pairs per workload, "
            f"workloads in the order {', '.join(WORKLOADS)}). Odd pairs run the parent first, "
            "even pairs the change first. Quartiles are statistics.quantiles(n=4, "
            "method='inclusive'); a pair counts for the change when its value is strictly "
            "better in the metric's direction. Each run keeps its provenance block, its "
            "result line and the small fields of its detail block."
        ),
        "host": (
            f"{len(os.sched_getaffinity(0))} vCPUs (nproc), Python {platform.python_version()}"
        ),
        "claim": None,
        "summary": {},
        "runs": [],
    }

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side, rev in (("parent", parent), ("change", change)):
            sides[side].mkdir()
            extract(rev, sides[side])
        for workload in WORKLOADS:
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for position, side in enumerate(order, 1):
                    record = run_side(sides[side], workload, pair, seconds)
                    record.update(
                        workload=workload, pair=pair, seed=pair, side=side, position=position
                    )
                    doc["runs"].append(record)
                    metric = record.get("result", {}).get("metrics", {}).get("op_p50_s", {})
                    print(f"{workload} pair {pair} {side}: exit {record['exit_code']} "
                          f"op_p50_s {metric.get('value')}", flush=True)
                doc["summary"] = summarise(doc["runs"])
                doc["claim"] = claim_of(doc["summary"], args.claim) if args.claim else None
                out.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")
    failed = [r for r in doc["runs"] if r["exit_code"] != 0]
    print(f"wrote {out.name}: {len(doc['runs'])} runs, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
