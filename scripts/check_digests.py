#!/usr/bin/env python3
"""Check the benchmark's op outputs against its recorded digests, writing nothing.

    python3 scripts/check_digests.py [first-last]

For each seed of the range (default: every seed `perfbench/digests.json`
records) and each workload recorded there, runs
`perfbench/worker.py --mode digest` from the repository root, as
`perfbench/record.py digests` does, and compares the op digests it
reports with the recorded ones. Exits 1 at the first (workload, seed)
whose digests differ, whose ops fail, or that has none recorded; exits 0
when every one matches. Unlike `record.py digests`, it leaves
`perfbench/digests.json` as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
DIGESTS = ROOT / "perfbench" / "digests.json"


def seed_range(text: str) -> range:
    first, sep, last = text.partition("-")
    last = last if sep else first
    if not (first.isdecimal() and last.isdecimal() and int(first) <= int(last)):
        raise argparse.ArgumentTypeError(f"not a seed range first-last: {text!r}")
    return range(int(first), int(last) + 1)


def digests(workload: str, seed: int) -> tuple[list[str] | None, str]:
    """The op digests the worker reports, or None and the reason it failed."""
    cmd = [
        sys.executable, str(WORKER), "--mode", "digest",
        "--workload", workload, "--seed", str(seed),
    ]
    env = dict(os.environ, GRIDFLEX_THREADS=str(len(os.sched_getaffinity(0))))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited with {proc.returncode}"
    result = json.loads(lines[-1])
    if result["failed"]:
        return None, f"failed ops {result['causes']}"
    return result["digests"], ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="?", type=seed_range, help="first-last, e.g. 0-31")
    args = parser.parse_args()
    table = json.loads(DIGESTS.read_text())
    seeds = args.seeds or sorted({int(s) for recorded in table.values() for s in recorded})
    for seed in seeds:
        for workload in sorted(table):
            expected = table[workload].get(str(seed))
            if expected is None:
                print(f"{workload} seed {seed}: no recorded digests", flush=True)
                return 1
            actual, failure = digests(workload, seed)
            if actual is None:
                print(f"{workload} seed {seed}: {failure}", flush=True)
                return 1
            if actual != expected:
                ops = [i for i, (a, e) in enumerate(zip(actual, expected)) if a != e]
                print(
                    f"{workload} seed {seed}: {len(actual)} ops against {len(expected)} recorded,"
                    f" ops {ops} differ",
                    flush=True,
                )
                return 1
            print(f"{workload} seed {seed}: {len(actual)} ops match", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
