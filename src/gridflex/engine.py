"""Horizon runner, result packaging, and experiment harnesses.

`run` wraps a scheduler over one scenario, gates the output through the
independent feasibility validator, and packages a deterministic result
document. Experiments (mobility delta, baseline comparison, oracle gap)
run their items one after another, in input order, on the calling thread.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from . import baselines, exact, heuristic, utility, workload
from .model import (
    IDLE,
    Action,
    Scenario,
    ScenarioFormatError,
    decode_action,
    encode_action,
    printable_id,
    validate_config,
)

RESULT_SCHEMA_VERSION = 1

T = TypeVar("T")
R = TypeVar("R")


class InfeasibleRunError(RuntimeError):
    """The validator rejected a scheduler's output; the run is discarded."""


class InvalidScenarioError(ValueError):
    """The scenario failed model validation."""


def worker_count() -> int:
    """Always 1: experiments run serially. The benchmark records this name."""
    return 1


def _parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """`fn` over `items` in order; the benchmark looks this name up to time each item."""
    return [fn(item) for item in items]


@dataclass
class RunResult:
    scenario_id: str
    scheduler: str
    mobility_enabled: bool
    total_loss: float
    per_device: dict[str, dict[str, float]]
    decisions: dict[str, list[Action]]
    utilization_kw: list[list[float]]  # [slot][aggregator]
    slot_wall_s: list[float]

    def _header(self, include_timing: bool) -> dict:
        """Every field of the result document except the decisions."""
        doc = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "scenario_id": self.scenario_id,
            "scheduler": self.scheduler,
            "mobility_enabled": self.mobility_enabled,
            "total_loss": self.total_loss,
            "per_device": self.per_device,
            "utilization_kw": self.utilization_kw,
        }
        if include_timing:
            doc["slot_wall_s"] = self.slot_wall_s
        return doc

    def to_dict(self, include_timing: bool = True) -> dict:
        return {**self._header(include_timing), "decisions": encode_decisions(self.decisions)}

    def json_chunks(self, include_timing: bool = True) -> Iterator[str]:
        """`json.dumps(self.to_dict(include_timing), sort_keys=True,
        allow_nan=False)` in pieces, one decision row at a time, so the
        whole document is never held as one string. "decisions" sorts
        before every other key, so the rows come first; an action code
        never needs escaping, an id may."""
        yield '{"decisions": {'
        sep = ""
        for dev_id in sorted(self.decisions):
            codes = encode_row(self.decisions[dev_id])
            row = '["' + '", "'.join(codes) + '"]' if codes else "[]"
            yield sep + json.dumps(dev_id) + ": " + row
            sep = ", "
        header = json.dumps(self._header(include_timing), sort_keys=True, allow_nan=False)
        yield "}, " + header[1:]

    def canonical_json(self) -> str:
        """Deterministic serialization with environment-dependent timing removed."""
        return "".join(self.json_chunks(include_timing=False))


def encode_row(row: Sequence[Action]) -> list[str]:
    """One decision row in its string form; the only producer of action codes."""
    # the IDLE singleton fills most of a row; any other action,
    # another Idle instance included, goes through encode_action
    return ["I" if a is IDLE else encode_action(a) for a in row]


def encode_decisions(decisions: dict[str, list[Action]]) -> dict[str, list[str]]:
    """Every row of a decision matrix in its string form, sorted by device id."""
    return {k: encode_row(decisions[k]) for k in sorted(decisions)}


def decisions_from_dict(doc: dict) -> dict[str, list[Action]]:
    """The decision matrix of a result document; each row must be a JSON
    list (a string would be walked as a row of one-letter actions)."""
    try:
        decisions = {}
        for dev_id, row in doc["decisions"].items():
            if type(row) is not list:
                raise ScenarioFormatError(
                    f"decision row {dev_id!r} must be a list, got {type(row).__name__}"
                )
            decisions[dev_id] = [decode_action(a) for a in row]
        return decisions
    except (KeyError, TypeError, AttributeError) as exc:
        raise ScenarioFormatError(f"bad result document: {exc!r}") from exc


def check_scenario(scenario: Scenario) -> None:
    """Raise `InvalidScenarioError` naming the first five model violations, if any."""
    violations = validate_config(scenario.config, scenario.devices)
    if violations:
        raise InvalidScenarioError(
            "; ".join(str(v) for v in violations[:5])
            + (f" (+{len(violations) - 5} more)" if len(violations) > 5 else "")
        )


def run(
    scenario: Scenario,
    scheduler: str = "heuristic",
    mobility: bool | None = None,
) -> RunResult:
    """Execute one scheduler over one scenario with the validator gate.

    `mobility=None` uses the scheduler's default (on for the heuristic,
    off for the baselines). Raises `InvalidScenarioError` on model
    violations and `InfeasibleRunError` if the resulting decision matrix
    fails any feasibility constraint (the engine cannot emit infeasible
    results).
    """
    check_scenario(scenario)
    spec = baselines.get_scheduler(scheduler)
    mobility_enabled = spec.mobility_default if mobility is None else mobility

    horizon = heuristic.run_horizon(
        scenario.config,
        scenario.devices,
        rank_fn=spec.rank_fn,
        mobility_enabled=mobility_enabled,
    )

    report = exact.validate_schedule(horizon.decisions, scenario.config, list(scenario.devices))
    if not report.all_pass:
        witnesses = "; ".join(
            f"({c.name}) device={printable_id(c.witness[0])} slot={c.witness[1]}"
            for c in report.failed()
        )
        raise InfeasibleRunError(
            f"scheduler {scheduler} produced an infeasible schedule: {witnesses}"
        )

    per_device = {}
    for dev_id in sorted(horizon.states):
        row = horizon.states[dev_id]
        per_device[dev_id] = {
            "loss_total": row.total,
            "deadline_loss": row.deadline_loss,
            "mobility_loss_weighted": row.mobility_loss_weighted,
            "stationary_penalty": row.stationary_penalty,
            "progress_kwh": row.progress_kwh,
            "extra_demand_kwh": row.extra_demand_kwh,
            "completed": row.completed,
        }
    return RunResult(
        scenario_id=scenario.scenario_id,
        scheduler=scheduler,
        mobility_enabled=mobility_enabled,
        total_loss=horizon.total_loss,
        per_device=per_device,
        decisions=horizon.decisions,
        utilization_kw=horizon.committed_kw,
        slot_wall_s=horizon.slot_wall_s,
    )


def replay_loss(scenario: Scenario, decisions: dict[str, list[Action]]) -> float:
    """Recompute the total loss of a decision matrix from scratch.

    Scores each row with `utility.row_loss` and sums them with
    `utility.total_loss`; must reproduce a RunResult's total exactly.
    """
    by_id, cfg = scenario.device_map(), scenario.config
    rows = {dev_id: utility.row_loss(by_id[dev_id], row, cfg) for dev_id, row in decisions.items()}
    return utility.total_loss(rows)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupStats:
    count: int
    mean: float
    variance: float
    median: float
    q25: float
    q75: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "GroupStats":
        values = sorted(samples)
        q = statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3
        return cls(
            count=len(values),
            mean=statistics.fmean(values),
            variance=statistics.pvariance(values),
            median=statistics.median(values),
            q25=q[0],
            q75=q[2],
        )


@dataclass
class ExperimentSummary:
    """Loss-delta samples keyed by (device count, mobile fraction)."""

    samples: dict[tuple[int, float], list[float]]

    @property
    def groups(self) -> dict[tuple[int, float], GroupStats]:
        return {key: GroupStats.from_samples(v) for key, v in self.samples.items()}

    def by_device_count(self) -> dict[int, GroupStats]:
        merged: dict[int, list[float]] = {}
        for (count, _frac), values in self.samples.items():
            merged.setdefault(count, []).extend(values)
        return {c: GroupStats.from_samples(v) for c, v in sorted(merged.items())}

    def to_dict(self) -> dict:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "groups": [
                {
                    "device_count": count,
                    "mobile_fraction": frac,
                    **stats.__dict__,
                }
                for (count, frac), stats in sorted(self.groups.items())
            ],
            "by_device_count": [
                {"device_count": count, **stats.__dict__}
                for count, stats in self.by_device_count().items()
            ],
        }


DEFAULT_CLASS_COMBOS = (
    ("L", "L", "L", "M", "H"),
    ("L", "L", "M", "M", "H"),
    ("L", "M", "M", "M", "H"),
    ("L", "L", "M", "H", "H"),
)

DEFAULT_MOBILE_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


def sample_grid(
    device_counts: Sequence[int],
    samples_per_count: int,
    seed: int = 0,
    class_combos: Sequence[tuple[str, ...]] = DEFAULT_CLASS_COMBOS,
    mobile_fractions: Sequence[float] = DEFAULT_MOBILE_FRACTIONS,
) -> list[workload.GenSpec]:
    """Rotate class combinations and mobile fractions across seeded samples.

    Raises `ValueError` when either pool is empty.
    """
    if not class_combos:
        raise ValueError("class_combos must hold at least one class combination")
    if not mobile_fractions:
        raise ValueError("mobile_fractions must hold at least one fraction")
    specs = []
    for count in device_counts:
        for s in range(samples_per_count):
            specs.append(
                workload.GenSpec(
                    num_devices=count,
                    class_combo=class_combos[s % len(class_combos)],
                    mobile_fraction=mobile_fractions[s % len(mobile_fractions)],
                    seed=seed * 100_000 + count * 1_000 + s,
                )
            )
    return specs


def mobility_delta_experiment(specs: Iterable[workload.GenSpec]) -> ExperimentSummary:
    """loss(mobility on) - loss(mobility off) for the heuristic, per sample."""

    def one(spec: workload.GenSpec) -> tuple[tuple[int, float], float]:
        scenario = workload.generate(spec)
        with_mob = run(scenario, "heuristic", mobility=True)
        without = run(scenario, "heuristic", mobility=False)
        return (spec.num_devices, spec.mobile_fraction), with_mob.total_loss - without.total_loss

    results = _parallel_map(one, specs)
    samples: dict[tuple[int, float], list[float]] = {}
    for key, delta in results:
        samples.setdefault(key, []).append(delta)
    return ExperimentSummary(samples=samples)


def improvement_report(results: dict[str, RunResult]) -> dict[str, str | float]:
    """Percent improvement of the heuristic over each baseline.

    (baseline - heuristic) / baseline * 100; 'n/a' when a baseline's loss
    is zero.
    """
    heuristic_loss = results["heuristic"].total_loss
    out: dict[str, str | float] = {}
    for name, result in results.items():
        if name == "heuristic":
            continue
        if result.total_loss == 0.0:
            out[name] = "n/a"
        else:
            out[name] = (result.total_loss - heuristic_loss) / result.total_loss * 100.0
    return out


def baseline_compare(scenario: Scenario) -> dict[str, RunResult]:
    """Every registered scheduler over `scenario`, keyed in registry order."""
    names = list(baselines.SCHEDULERS)
    return dict(zip(names, _parallel_map(lambda name: run(scenario, name), names)))


def oracle_gap_experiment(count: int, seed: int = 0) -> exact.GapReport:
    scenarios = workload.micro_instances(count, seed=seed)
    return exact.gap_report([exact.ExactInstance(s) for s in scenarios])


def metrics_table(summary: ExperimentSummary) -> str:
    """Flat tab-separated table of the summary, ready for plotting."""
    lines = ["device_count\tmobile_fraction\tcount\tmean\tvariance\tmedian\tq25\tq75"]
    for (count, frac), stats in sorted(summary.groups.items()):
        lines.append(
            f"{count}\t{frac}\t{stats.count}\t{stats.mean:.6g}\t{stats.variance:.6g}"
            f"\t{stats.median:.6g}\t{stats.q25:.6g}\t{stats.q75:.6g}"
        )
    return "\n".join(lines) + "\n"
