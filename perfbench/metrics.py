"""Metric definitions: end-to-end figures from op times, per-layer figures
from traced cycles, and the benchmark's self-checks on both."""

from __future__ import annotations

import math
import statistics
from typing import Callable

# Self times are thread CPU seconds and op times wall seconds. Under the
# interpreter lock the threads' CPU adds up to at most the wall time, except
# where numpy releases the lock; this slack covers that and clock-read order,
# while double counting of a layer would exceed it many times over.
_SLACK_S = 1e-3
_SLACK_FRAC = 0.01


class SelfCheckError(RuntimeError):
    """The benchmark's own accounting is inconsistent; no result is valid."""


def check_self_times(snap: dict, wall_s: float, label: str) -> None:
    """Layer self times are non-negative and sum to at most the covered wall time."""
    selfs = {name: layer["self_s"] for name, layer in snap["layers"].items()}
    negative = {name: s for name, s in selfs.items() if s < 0}
    if negative:
        raise SelfCheckError(f"{label}: negative self time {negative}")
    total = sum(selfs.values())
    if total > wall_s * (1 + _SLACK_FRAC) + _SLACK_S:
        raise SelfCheckError(f"{label}: layer self times sum to {total:.6f}s > {wall_s:.6f}s")


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------

TAIL_PERCENTILE = 90.0


def tail(op_times: list[float]) -> tuple[float, int]:
    """(op time at TAIL_PERCENTILE by nearest rank, number of ops beyond it).

    A fixed percentile, not the highest one with ten ops beyond it: op
    counts per run range from 9 (gen-1600) to a few thousand, and at the
    low end that rule has no answer or jumps between p100 and p17 as the
    count moves from 9 to 12. Reported in the run details, not as a
    bounded metric (see README.md).
    """
    ordered = sorted(op_times)
    rank = math.ceil(TAIL_PERCENTILE / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def per_input(op_times: list[float], cycle_length: int) -> list[float]:
    """Median repetition of each input; op k ran input k % cycle_length."""
    return [statistics.median(op_times[i::cycle_length]) for i in range(cycle_length)]


def end_to_end(
    op_times: list[float], cycle_length: int, setup_samples: list[float], peak_rss_mib: float
) -> dict:
    """Times are host-speed normalised (calibrate.py): seconds at the reference speed."""
    typical = per_input(op_times, cycle_length)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "op_p50_s": (statistics.median(typical), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


# ---------------------------------------------------------------------------
# Per layer
# ---------------------------------------------------------------------------

def _flatten(trace: dict) -> dict[str, float]:
    """Raw traced quantities keyed by kind: busy/self/calls/count/gauge/span."""
    flat: dict[str, float] = {}
    layers = dict(trace["layers"])
    layers.update(trace.get("check_layers", {}))
    for name, layer in layers.items():
        flat["busy:" + name] = layer["busy_s"]
        flat["self:" + name] = layer["self_s"]
        flat["calls:" + name] = layer["calls"]
    for name, value in trace["counts"].items():
        flat["count:" + name] = value
    for name, value in trace["gauges"].items():
        flat["gauge:" + name] = value
    for name, value in trace.get("span_wall_s", {}).items():
        flat["span:" + name] = value
    return flat


def _is_time(key: str) -> bool:
    return key.split(":")[0] in ("busy", "self", "span") or key == "count:engine.pool_wait_ns"


def _combine(prepared: dict | None, traced: list[dict]) -> dict[str, float]:
    """Set-up figures plus the median traced cycle; exact counts must repeat."""
    cycles = [_flatten(t) for t in traced]
    keys = set().union(*cycles)
    combined = _flatten(prepared) if prepared else {}
    for key in keys:
        values = [c.get(key, 0) for c in cycles]
        if _is_time(key):
            value = statistics.median(values)
        else:
            if len(set(values)) != 1:
                raise SelfCheckError(f"count {key} differs between traced cycles: {values}")
            value = values[0]
        combined[key] = combined.get(key, 0) + value
    return combined


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _definitions() -> list[tuple[str, str, Callable[[Callable], float]]]:
    """(metric, unit, formula over a lookup of raw traced quantities)."""
    rank_layers = ("heuristic", "edf", "hp", "other")
    return [
        ("heuristic.run_horizon_s", "s", lambda g: g("busy:heuristic.run_horizon")),
        ("heuristic.run_horizon_self_s", "s", lambda g: g("self:heuristic.run_horizon")),
        ("heuristic.run_horizon_calls", "count", lambda g: g("calls:heuristic.run_horizon")),
        ("heuristic.schedule_slot_s", "s", lambda g: g("busy:heuristic.schedule_slot")),
        ("heuristic.schedule_slot_calls", "count", lambda g: g("calls:heuristic.schedule_slot")),
        ("baselines.rank_s", "s",
         lambda g: sum(g(f"busy:baselines.rank.{r}") for r in rank_layers)),
        ("baselines.rank.heuristic_s", "s", lambda g: g("busy:baselines.rank.heuristic")),
        ("baselines.rank.edf_s", "s", lambda g: g("busy:baselines.rank.edf")),
        ("baselines.rank.hp_s", "s", lambda g: g("busy:baselines.rank.hp")),
        ("heuristic.mobility_decision_s", "s", lambda g: g("busy:heuristic.mobility_decision")),
        ("heuristic.mobility_decision_calls", "count",
         lambda g: g("calls:heuristic.mobility_decision")),
        ("heuristic.moves", "count", lambda g: g("count:heuristic.moves")),
        ("utility.slot_loss_s", "s", lambda g: g("busy:utility.slot_loss")),
        ("utility.slot_loss_calls", "count", lambda g: g("calls:utility.slot_loss")),
        ("utility.live_ratio", "frac",
         lambda g: _ratio(g("count:workload.in_window_device_slots"), g("calls:utility.slot_loss"))),
        ("heuristic.device_slots_per_s", "1/s",
         lambda g: _ratio(g("count:workload.in_window_device_slots"), g("busy:heuristic.run_horizon"))),
        ("workload.generate_s", "s", lambda g: g("busy:workload.generate")),
        ("workload.ingest_s", "s", lambda g: g("busy:workload.ingest")),
        ("workload.requests", "count", lambda g: g("count:workload.requests")),
        ("workload.in_window_device_slots", "count",
         lambda g: g("count:workload.in_window_device_slots")),
        ("model.validate_config_s", "s", lambda g: g("busy:model.validate_config")),
        ("model.violations", "count", lambda g: g("count:model.violations")),
        ("model.load_scenario_s", "s", lambda g: g("busy:model.load_scenario")),
        ("exact.validate_schedule_s", "s", lambda g: g("busy:exact.validate_schedule")),
        ("engine.run_self_s", "s", lambda g: g("self:engine.run")),
        ("engine.result_to_dict_s", "s", lambda g: g("busy:engine.result_to_dict")),
        ("engine.replay_loss_s", "s", lambda g: g("busy:engine.replay_loss")),
        ("engine.experiment_s", "s", lambda g: g("span:engine.experiment")),
        ("engine.pool_wait_s", "s", lambda g: g("count:engine.pool_wait_ns") / 1e9),
        ("engine.workers", "count", lambda g: g("gauge:engine.workers")),
        ("engine.completed_requests", "count", lambda g: g("count:engine.completed_requests")),
        ("cli.run_self_s", "s", lambda g: g("self:cli.run")),
        ("exact.solve_exact_s", "s", lambda g: g("busy:exact.solve_exact")),
        ("exact.nodes", "count", lambda g: g("count:exact.nodes")),
        ("exact.nodes_per_s", "1/s",
         lambda g: _ratio(g("count:exact.nodes"), g("busy:exact.solve_exact"))),
    ]


def layer_metrics(prepared: dict | None, traced: list[dict], untraced_cycle_s: list[float]) -> dict:
    """Per-layer metrics over set-up plus one (median) traced cycle of ops."""
    combined = _combine(prepared, traced)
    lookup = lambda key: combined.get(key, 0)  # noqa: E731 - absent layer: did not run
    out = {name: (formula(lookup), unit) for name, unit, formula in _definitions()}
    overhead = (
        statistics.median(t["wall_s"] for t in traced) / statistics.median(untraced_cycle_s) - 1.0
    )
    out["trace.overhead_frac"] = (overhead, "frac")
    return out
