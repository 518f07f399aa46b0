"""`heuristic.run_horizon` against the plain per-slot loop in
`reference_scheduler`: every scheduler, with mobility on and off, must
give the same decision rows."""

from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from gridflex import workload
from gridflex.baselines import get_scheduler
from gridflex.heuristic import run_horizon
from gridflex.model import (
    DeviceRequest,
    Move,
    PowerModeSet,
    Scenario,
    ScenarioFormatError,
    SystemConfig,
    line_movement,
    load_scenario,
    scenario_from_dict,
    uniform_movement,
    validate_config,
)
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


@st.composite
def mobile_scenarios(draw):
    """A valid scenario built to make devices move: short windows at a
    tight aggregator 0, with roomier aggregators one or two slots away."""
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        movement = line_movement(n, draw(st.sampled_from([0.0, 0.05, 0.15])))
    else:
        movement = uniform_movement(
            n, draw(st.integers(1, 2)), draw(st.sampled_from([0.0, 0.1]))
        )
    horizon = draw(st.integers(6, 10))
    budgets = [draw(st.floats(1.0, 3.0))] + [draw(st.floats(3.0, 6.0)) for _ in range(n - 1)]
    devices = []
    for k in range(draw(st.integers(3, 8))):
        modes = PowerModeSet(
            tuple(sorted(draw(st.sets(st.sampled_from([1.0, 2.0, 3.0]), min_size=1, max_size=2))))
        )
        window = draw(st.integers(1, 3))
        arrival = draw(st.integers(0, horizon - window))
        capacity = modes.max_kw * 0.5 * window
        mobile = draw(st.integers(0, 9)) < 8
        devices.append(
            DeviceRequest(
                id=f"d{k}",
                arrival_slot=arrival,
                deadline_slot=arrival + window,
                mobile=mobile,
                initial_energy_kwh=draw(st.floats(0.5, 2.0)) if mobile else 0.0,
                demand_kwh=draw(st.floats(0.6, 1.0)) * capacity,
                criticality=draw(st.sampled_from(workload.KAPPA_POOL)),
                modes=modes,
                home=0 if draw(st.integers(0, 9)) < 7 else draw(st.integers(1, n - 1)),
            )
        )
    cfg = SystemConfig(n, tuple(budgets), horizon, 0.5, movement)
    return Scenario("mobile", cfg, tuple(devices))


def test_mobile_scenarios_match_reference():
    moved = []

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(mobile_scenarios())
    def check(scenario):
        assert validate_config(scenario.config, scenario.devices) == []
        assert mismatches(scenario) == []
        rows = run_horizon(scenario.config, scenario.devices).decisions.values()
        moved.append(any(isinstance(action, Move) for row in rows for action in row))

    check()
    # the check above is only as good as the share of draws that move
    assert sum(moved) >= len(moved) / 3, (sum(moved), len(moved))


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
