"""The benchmark's four workloads: inputs, the timed op, and its checks.

Each workload turns the workload seed into a fixed cycle of op inputs
(`prepare`), runs one op per input (`op`, the timed part), and checks an
op's outputs outside the timed region (`check`). A check returns the
sha256 of the op's canonical output, the failure causes it found, and
exact counts taken from the outputs. See README.md for why each workload
exists and which layers it stresses.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr
from pathlib import Path
from typing import Any

import numpy as np

from gridflex import cli, engine, exact, heuristic, model, workload

HERE = Path(__file__).resolve().parent
ORACLE_CORPUS = HERE / "oracle_corpus.json"

# Exceptions the program documents for inputs it refuses or runs it rejects;
# an op raising one of these is a failed op with that cause.
FAILURE_CAUSES = {
    engine.InfeasibleRunError: "engine.infeasible_runs",
    engine.InvalidScenarioError: "engine.invalid_scenarios",
    workload.GenerationError: "workload.generation_errors",
    exact.CapExceededError: "exact.cap_refusals",
}
CHECK_CAUSES = (
    "check.schedule_invalid",
    "check.replay_mismatch",
    "check.digest_mismatch",
    "check.oracle_violations",
    "check.other_errors",
)
CAUSES = tuple(FAILURE_CAUSES.values()) + CHECK_CAUSES


def cause_of(exc: BaseException) -> str:
    for kind, cause in FAILURE_CAUSES.items():
        if isinstance(exc, kind):
            return cause
    return "check.other_errors"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_schedule(
    scenario: model.Scenario, decisions: dict, total_loss: float
) -> list[str]:
    """Feasibility under the independent validator, and replay bit-equality."""
    causes = []
    try:
        report = exact.validate_schedule(decisions, scenario.config, list(scenario.devices))
        if not report.all_pass:
            causes.append("check.schedule_invalid")
    except exact.ScheduleFormatError:
        causes.append("check.schedule_invalid")
    # looked up at call time so a traced pass can time the replay layer
    if engine.replay_loss(scenario, decisions) != total_loss:
        causes.append("check.replay_mismatch")
    return causes


class Capture:
    """Records the results of calls the op makes internally, for its checks."""

    def __init__(self, owner: Any, attr: str) -> None:
        self.owner, self.attr = owner, attr
        self.calls: list[tuple[tuple, dict, Any]] = []

    def __enter__(self) -> "Capture":
        self.original = getattr(self.owner, self.attr)

        def recording(*args, **kwargs):
            result = self.original(*args, **kwargs)
            self.calls.append((args, kwargs, result))
            return result

        setattr(self.owner, self.attr, recording)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.owner, self.attr, self.original)


class Gen1600:
    """`gridflex run` in process on a 1600-device generated scenario."""

    name = "gen-1600"
    schedulers = ("heuristic", "edf", "hp")

    def input_seeds(self, seed: int) -> dict:
        return {"genspec_seed": seed}

    def _scenario(self, num_devices: int, seed: int, workdir: Path, stem: str):
        spec = workload.GenSpec(
            num_devices=num_devices, class_combo=("L", "L", "M", "M", "H"), seed=seed
        )
        scenario = workload.generate(spec)
        path = workdir / f"{stem}.json"
        model.save_scenario(scenario, path)
        return [(scenario, path, s, workdir / f"{stem}-result.json") for s in self.schedulers]

    def prepare(self, seed: int, workdir: Path) -> list:
        return self._scenario(1600, seed, workdir, "scenario")

    def warm_up_inputs(self, seed: int, workdir: Path) -> list:
        return self._scenario(20, seed, workdir, "warm-up")

    def op(self, inp) -> tuple[int, str]:
        _scenario, path, scheduler, out = inp
        err = io.StringIO()
        with redirect_stderr(err):
            code = cli.main(["run", str(path), "--scheduler", scheduler, "--out", str(out)])
        return code, err.getvalue()

    def check(self, inp, result) -> tuple[str | None, list[str], dict]:
        scenario, _path, _scheduler, out = inp
        code, err = result
        if code != cli.EXIT_OK:
            cause = (
                "engine.invalid_scenarios"
                if err.startswith("scenario invalid")
                else "engine.infeasible_runs"
            )
            return None, [cause], {}
        doc = json.loads(out.read_text())
        doc.pop("slot_wall_s")
        canonical = json.dumps(doc, sort_keys=True)  # == RunResult.canonical_json()
        causes = check_schedule(scenario, engine.decisions_from_dict(doc), doc["total_loss"])
        completed = sum(row["completed"] for row in doc["per_device"].values())
        return sha256(canonical), causes, {"engine.completed_requests": completed}


class EvCompare:
    """Baseline comparison on the bundled EV replica, one completion seed per op."""

    name = "ev-compare"
    per_cycle = 10

    def input_seeds(self, seed: int) -> dict:
        first = seed * self.per_cycle
        return {"ingest_seeds": [first, first + self.per_cycle - 1]}

    def _records(self):
        records, _skipped = workload.parse_sessions(workload.bundled_replica_text())
        return records

    def prepare(self, seed: int, workdir: Path) -> list:
        records = self._records()
        first = seed * self.per_cycle
        return [
            workload.ingest_sessions(records, workload.IngestSpec(seed=first + i))[0]
            for i in range(self.per_cycle)
        ]

    def warm_up_inputs(self, seed: int, workdir: Path) -> list:
        records = self._records()[:60]
        return [workload.ingest_sessions(records, workload.IngestSpec(seed=seed))[0]]

    def op(self, scenario):
        results = engine.baseline_compare(scenario)
        return results, engine.improvement_report(results)

    def check(self, scenario, result) -> tuple[str | None, list[str], dict]:
        results, report = result
        causes = []
        completed = 0
        for run in results.values():
            causes += check_schedule(scenario, run.decisions, run.total_loss)
            completed += sum(row["completed"] for row in run.per_device.values())
        canonical = json.dumps(
            {
                "runs": {name: run.canonical_json() for name, run in results.items()},
                "improvement_pct": report,
            },
            sort_keys=True,
        )
        return sha256(canonical), causes, {"engine.completed_requests": completed}


class MobilitySweep:
    """Mobility-delta batches over the acceptance-4 device counts."""

    name = "mobility-sweep"
    counts = (20, 40, 60, 80, 100)
    batches = 4

    def input_seeds(self, seed: int) -> dict:
        return {"sample_grid_seeds": [seed * self.batches + b for b in range(self.batches)]}

    def _batch(self, counts, seed: int, b: int) -> list:
        # one class combo and mobile fraction per batch, so a cycle covers all four
        return engine.sample_grid(
            counts,
            1,
            seed=seed,
            class_combos=(engine.DEFAULT_CLASS_COMBOS[b],),
            mobile_fractions=(engine.DEFAULT_MOBILE_FRACTIONS[b],),
        )

    def prepare(self, seed: int, workdir: Path) -> list:
        return [
            self._batch(self.counts, seed * self.batches + b, b) for b in range(self.batches)
        ]

    def warm_up_inputs(self, seed: int, workdir: Path) -> list:
        return [self._batch((20, 20), seed, 0)]

    def op(self, specs):
        with Capture(engine, "run") as runs:
            summary = engine.mobility_delta_experiment(specs)
        return summary, runs.calls

    def check(self, specs, result) -> tuple[str | None, list[str], dict]:
        summary, calls = result
        causes = []
        completed = 0
        canonical_runs = []
        for args, _kwargs, run in calls:
            causes += check_schedule(args[0], run.decisions, run.total_loss)
            completed += sum(row["completed"] for row in run.per_device.values())
            canonical_runs.append(run.canonical_json())
        canonical = json.dumps(
            {"summary": summary.to_dict(), "runs": sorted(canonical_runs)}, sort_keys=True
        )
        return sha256(canonical), causes, {"engine.completed_requests": completed}


class OracleMicro:
    """Exact-vs-heuristic gap on one cap-sized micro-instance per op.

    The instances come from `oracle_corpus.json` (built by `record.py`):
    micro-instances at the solver caps whose exact solve takes a similar
    time. The corpus is sorted by that time and cut into one stratum per
    op of the cycle; the seed picks one instance per stratum,
    so no single instance dominates a cycle and cycles of different seeds
    carry a similar amount of search.
    """

    name = "oracle-micro"
    picks = 24

    def input_seeds(self, seed: int) -> dict:
        return {"corpus_pick_seed": seed}

    def prepare(self, seed: int, workdir: Path) -> list:
        corpus = json.loads(ORACLE_CORPUS.read_text())["instances"]
        rng = np.random.Generator(np.random.PCG64(seed))
        bounds = np.linspace(0, len(corpus), self.picks + 1).astype(int)
        chosen = [int(rng.integers(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        return [
            exact.ExactInstance(model.scenario_from_dict(corpus[i]["scenario"]))
            for i in chosen
        ]

    def warm_up_inputs(self, seed: int, workdir: Path) -> list:
        return [exact.ExactInstance(s) for s in workload.micro_instances(1, seed=seed)]

    def op(self, instance):
        with Capture(exact, "solve_exact") as solved, Capture(heuristic, "run_scenario") as runs:
            report = exact.gap_report([instance])
        return report, solved.calls[0][2], runs.calls[0][2]

    def check(self, instance, result) -> tuple[str | None, list[str], dict]:
        report, optimum, horizon = result
        scenario = instance.scenario
        (row,) = report.rows
        causes = check_schedule(scenario, optimum.decisions, optimum.loss)
        causes += check_schedule(scenario, horizon.decisions, horizon.total_loss)
        if not optimum.loss <= horizon.total_loss:
            causes.append("check.oracle_violations")
        canonical = json.dumps(
            {
                "row": row.__dict__,
                "nodes": optimum.nodes,
                "exact_decisions": {
                    dev: [model.encode_action(a) for a in actions]
                    for dev, actions in optimum.decisions.items()
                },
            },
            sort_keys=True,
        )
        completed = sum(st.completed for st in horizon.states.values())
        return sha256(canonical), causes, {"engine.completed_requests": completed}


WORKLOADS = {w.name: w for w in (Gen1600, EvCompare, MobilitySweep, OracleMicro)}
