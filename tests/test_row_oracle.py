"""The per-device loss fields of `engine.run` against the mpmath oracle
in `loss_oracle`, for every scheduler with mobility on and off."""

from importlib import resources

import pytest

from gridflex import engine, workload
from gridflex.model import load_scenario
from gridflex.workload import GenSpec, IngestSpec
from loss_oracle import oracle_mismatches


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


@pytest.mark.parametrize("make_scenario", [golden_light20, ev_replica_0, gen_100_seed_3])
def test_per_device_losses_match_oracle(make_scenario):
    scenario = make_scenario()
    rows = mismatches = 0
    for scheduler in ("heuristic", "edf", "hp"):
        for mobility in (True, False):
            result = engine.run(scenario, scheduler, mobility=mobility)
            rows += len(result.per_device)
            mismatches += len(
                oracle_mismatches(
                    scenario.devices, scenario.config, result.decisions, result.per_device
                )
            )
    assert rows > 0
    assert mismatches == 0, f"{mismatches} of {rows} rows differ from the oracle"
