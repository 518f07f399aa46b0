"""Independent oracle for the per-device loss fields of `engine.run`.

The engine scores each decision row once, and `engine.replay_loss` uses
the same scorer, so "replay equals engine" cannot catch a fault in the
loss model. This oracle rebuilds progress, extra demand and the three
loss terms from each row's actions alone, in arbitrary precision, and
without importing `gridflex.utility`.
"""

from importlib import resources

import mpmath
import pytest

from gridflex import engine, workload
from gridflex.model import Move, Serve, load_scenario
from gridflex.workload import GenSpec, IngestSpec

REL = 1e-9


def golden_light20():
    return load_scenario(str(resources.files("gridflex").joinpath("data", "golden_light20.json")))


def ev_replica_0():
    records, _ = workload.parse_sessions(workload.bundled_replica_text())
    scenario, _ = workload.ingest_sessions(records, IngestSpec(seed=0))
    return scenario


def gen_100_seed_3():
    return workload.generate(
        GenSpec(num_devices=100, class_combo=("L", "L", "M", "M", "H"), seed=3)
    )


def oracle_row(dev, row, cfg):
    """Progress and loss fields of one row, summed in 40-digit precision.

    Serving adds power x slot length, capped at demand plus the movement
    energy committed so far; a transit commits delay x per-slot cost when
    it starts and charges 2x its per-slot cost every slot it lasts; a
    non-mobile device pays beta_max per slot spent moving between
    clusters; a slot past the deadline with demand outstanding pays
    deficit * e^(criticality * slots late), at most beta_max.
    """
    mpf = mpmath.mpf
    beta_max = mpf(cfg.beta_max)
    demand = mpf(dev.demand_kwh)
    progress = extra = deadline = mobility = stationary = mpf(0)
    for slot, action in enumerate(row):
        if isinstance(action, Serve):
            delivered = mpf(dev.modes.levels_kw[action.mode_index - 1]) * mpf(cfg.slot_hours)
            progress = min(progress + delivered, demand + extra)
        elif isinstance(action, Move):
            edge = cfg.movement.option(action.origin, action.target)
            if slot == 0 or row[slot - 1] != action:
                extra += edge.delay_slots * mpf(edge.cost_kwh_per_slot)
            mobility += 2 * mpf(edge.cost_kwh_per_slot)
            if not dev.mobile and action.origin != action.target:
                stationary += beta_max
        if slot > dev.deadline_slot and progress < demand:
            late = slot - dev.deadline_slot
            deficit = demand - progress
            deadline += min(deficit * mpmath.exp(mpf(dev.criticality) * late), beta_max)
    return {
        "loss_total": deadline + mobility + stationary,
        "deadline_loss": deadline,
        "mobility_loss_weighted": mobility,
        "stationary_penalty": stationary,
        "progress_kwh": progress,
    }


def close(got, want):
    return abs(mpmath.mpf(got) - want) <= REL * abs(want)


@pytest.mark.parametrize("make_scenario", [golden_light20, ev_replica_0, gen_100_seed_3])
def test_per_device_losses_match_oracle(make_scenario):
    scenario = make_scenario()
    by_id = scenario.device_map()
    rows = mismatches = 0
    with mpmath.workdps(40):
        for scheduler in ("heuristic", "edf", "hp"):
            for mobility in (True, False):
                result = engine.run(scenario, scheduler, mobility=mobility)
                for dev_id, fields in result.per_device.items():
                    want = oracle_row(by_id[dev_id], result.decisions[dev_id], scenario.config)
                    rows += 1
                    mismatches += not all(close(fields[k], v) for k, v in want.items())
    assert rows > 0
    assert mismatches == 0, f"{mismatches} of {rows} rows differ from the oracle"
