"""`heuristic.run_horizon` against the plain per-slot loop in
`reference_scheduler`: every scheduler, with mobility on and off, must
give the same decision rows."""

from importlib import resources

import pytest
from hypothesis import given, settings

from gridflex import workload
from gridflex.baselines import get_scheduler
from gridflex.heuristic import run_horizon
from gridflex.model import ScenarioFormatError, load_scenario, scenario_from_dict, validate_config
from gridflex.workload import GenSpec, IngestSpec
from reference_scheduler import reference_rows
from test_fuzz_scenarios import scenario_docs

CASES = [(s, m) for s in ("heuristic", "edf", "hp") for m in (True, False)]


def mismatches(scenario):
    """(scheduler, mobility, device id) of every row that differs."""
    cfg, devices = scenario.config, scenario.devices
    found = []
    for scheduler, mobility in CASES:
        rank_fn = get_scheduler(scheduler).rank_fn
        got = run_horizon(cfg, devices, rank_fn=rank_fn, mobility_enabled=mobility).decisions
        want = reference_rows(cfg, devices, scheduler, mobility)
        found += [(scheduler, mobility, i) for i in sorted(want) if got[i] != want[i]]
    return found


def decoded(doc):
    """The scenario a document decodes to, or None if it is rejected."""
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioFormatError:
        return None
    return None if validate_config(scenario.config, scenario.devices) else scenario


@settings(max_examples=120, derandomize=True, deadline=None)
@given(scenario_docs().map(decoded).filter(lambda s: s is not None))
def test_fuzzed_scenarios_match_reference(scenario):
    assert mismatches(scenario) == []


def test_micro_instances_match_reference():
    # tight budgets: many clusters are contended, and two-mode devices upgrade
    for scenario in workload.micro_instances(300, seed=1):
        assert mismatches(scenario) == [], scenario.scenario_id


def corpus_scenario(name):
    if name == "golden_light20":
        path = resources.files("gridflex").joinpath("data", "golden_light20.json")
        return load_scenario(str(path))
    kind, number = name.split("-")
    if kind == "ev":
        records, _ = workload.parse_sessions(workload.bundled_replica_text())
        return workload.ingest_sessions(records, IngestSpec(seed=int(number)))[0]
    return workload.generate(
        GenSpec(num_devices=int(number), class_combo=("L", "L", "M", "M", "H"), seed=3)
    )


@pytest.mark.parametrize(
    "name", ["golden_light20", "ev-0", "ev-1", "ev-2", "gen-100", "gen-400"]
)
def test_digest_corpus_matches_reference(name):
    assert mismatches(corpus_scenario(name)) == []
