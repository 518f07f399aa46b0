"""Rebuild the benchmark's recorded data. Run from the repository root.

    python3 perfbench/record.py corpus            # perfbench/oracle_corpus.json
    python3 perfbench/record.py digests 0-31      # perfbench/digests.json

`corpus` scans cap-sized micro-instances (<= 4 devices, <= 8 slots,
<= 3 aggregators, as `workload.micro_instances` draws them) and keeps
those whose exact solve takes between SOLVE_MS_LOW and SOLVE_MS_HIGH on
the machine that builds it (median of three solves), so every
oracle-micro op does a similar amount of search. Node count alone is a
poor proxy: time per node varies about fourfold with the instance shape.

`digests` runs one untraced cycle of every workload at each seed of the
range and records each op's output digest. A run on a recorded seed
must reproduce them byte for byte; on other seeds the benchmark only
checks that repeated ops agree with the first. Record again only when a
change is meant to alter outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS_SIZE = 96
SOLVE_MS_LOW, SOLVE_MS_HIGH = 4.0, 12.0
NODE_BUDGET = 10_000  # candidates beyond this are far above the band
MICRO_PER_SEED = 300


def build_corpus() -> None:
    sys.path.insert(0, os.path.abspath("src"))
    from gridflex import exact, model, workload

    def solve_ms(instance) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            exact.solve_exact(instance)
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    kept = []
    micro_seed = 0
    while len(kept) < CORPUS_SIZE:
        scenarios = workload.micro_instances(
            MICRO_PER_SEED, seed=micro_seed, max_devices=4, max_slots=8, max_aggregators=3
        )
        for scenario in scenarios:
            probe = exact.ExactInstance(scenario, exact.ExactCaps(node_budget=NODE_BUDGET))
            try:
                nodes = exact.solve_exact(probe).nodes
            except exact.CapExceededError:
                continue
            ms = solve_ms(exact.ExactInstance(scenario)) if nodes >= 500 else 0.0
            if SOLVE_MS_LOW <= ms <= SOLVE_MS_HIGH:
                kept.append(
                    {"solve_ms": round(ms, 2), "nodes": nodes,
                     "scenario": model.scenario_to_dict(scenario)}
                )
        micro_seed += 1
    kept = sorted(kept[:CORPUS_SIZE], key=lambda k: (k["solve_ms"], k["scenario"]["id"]))
    doc = {
        "source": (
            f"workload.micro_instances({MICRO_PER_SEED}, seed=0..{micro_seed - 1}, "
            "max_devices=4, max_slots=8, max_aggregators=3)"
        ),
        "solve_ms_range": [SOLVE_MS_LOW, SOLVE_MS_HIGH],
        "instances": kept,
    }
    (HERE / "oracle_corpus.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"kept {len(kept)} instances from {micro_seed} micro seeds")


def record_digests(first: int, last: int) -> None:
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    from run import DEFAULT_SEEDS

    for workload in DEFAULT_SEEDS:
        for seed in range(first, last + 1):
            cmd = [
                sys.executable, str(HERE / "worker.py"), "--mode", "digest",
                "--workload", workload, "--seed", str(seed),
            ]
            env = dict(os.environ, GRIDFLEX_THREADS=str(len(os.sched_getaffinity(0))))
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=True)
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            if result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: failed ops {result['causes']}")
            table.setdefault(workload, {})[str(seed)] = result["digests"]
            print(f"{workload} seed {seed}: {len(result['digests'])} ops", flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main() -> None:
    if len(sys.argv) >= 2 and sys.argv[1] == "corpus":
        build_corpus()
    elif len(sys.argv) == 3 and sys.argv[1] == "digests":
        first, _, last = sys.argv[2].partition("-")
        record_digests(int(first), int(last or first))
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main()
