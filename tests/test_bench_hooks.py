"""The benchmark under `perfbench/` looks gridflex names up at call time.

Deleting or renaming one of them breaks the benchmark without failing any
other test; this installs the benchmark's layer tracer, checks the names
its workloads call, and runs one traced scenario so a change to the call
shape of the horizon loop fails here too.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from gridflex import baselines, cli, engine, exact, heuristic, model, utility, workload

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    originals = (heuristic.run_horizon, utility.slot_loss, cli.load_scenario)
    t = tracer.Tracer()
    tracer.install_layers(t)
    try:
        assert heuristic.run_horizon is not originals[0]
    finally:
        t.uninstall()
    assert (heuristic.run_horizon, utility.slot_loss, cli.load_scenario) == originals


def test_traced_run_reaches_every_horizon_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    # 88 requests over 5 aggregators and 50 slots; two of them move
    scenario = workload.generate(workload.GenSpec(num_devices=20, seed=0))
    t = tracer.Tracer()
    tracer.install_layers(t)
    try:
        engine.run(scenario, "heuristic", mobility=True)
    finally:
        t.uninstall()
    snap = t.snapshot()
    calls = {name: layer["calls"] for name, layer in snap["layers"].items()}
    assert calls["heuristic.run_horizon"] == 1
    assert calls["heuristic.schedule_slot"] == 5 * 50
    assert calls["baselines.rank.heuristic"] == 5 * 50
    assert calls["heuristic.mobility_decision"] > 0
    assert snap["counts"]["heuristic.moves"] > 0


def test_workload_entry_points_exist(tmp_path):
    # the call shapes the workloads use that no other test makes; no solve runs
    (micro,) = workload.micro_instances(
        1, seed=0, max_devices=4, max_slots=8, max_aggregators=3
    )
    assert heuristic.run_scenario(micro).decisions.keys() == micro.device_map().keys()
    assert exact.ExactInstance(micro, exact.ExactCaps(node_budget=10)).caps.node_budget == 10
    (spec,) = engine.sample_grid(
        (20,), 1, seed=0, class_combos=(("L", "M"),), mobile_fractions=(0.5,)
    )
    assert (spec.class_combo, spec.mobile_fraction) == (("L", "M"), 0.5)
    model.save_scenario(micro, tmp_path / "micro.json")
    assert model.load_scenario(tmp_path / "micro.json") == micro
    assert callable(exact.solve_exact)
    assert callable(engine.replay_loss)
    assert callable(engine.decisions_from_dict)
    assert callable(engine.worker_count)
    assert callable(heuristic.HorizonResult.total_loss.fget)
    assert {baselines.edf_rank.__name__, baselines.hp_rank.__name__} == {"edf_rank", "hp_rank"}


@pytest.mark.parametrize(
    "name, seed",
    [("oracle-micro", 0), ("gen-1600", 3), ("mobility-sweep", 0)],
    ids=str,
)
def test_workload_seed_matches_recorded_digests(monkeypatch, tmp_path, name, seed):
    # one benchmark cycle, op for op, as the benchmark checks it: a byte
    # change it would refuse fails here. oracle-micro is the only workload
    # driving the exact solver; gen-1600 runs the three schedulers through
    # `gridflex run`; mobility-sweep runs many small mobility on/off pairs.
    # ev-compare seeds 0-2 are pinned in test_digests.py.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    wl = workloads.WORKLOADS[name]()
    digests = []
    for inp in wl.prepare(seed, tmp_path):
        digest, causes, _counts = wl.check(inp, wl.op(inp))
        assert causes == []
        digests.append(digest)
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[name][str(seed)]
    assert digests == recorded


def test_benchmark_scenarios_decode_and_validate():
    corpus = json.loads((PERFBENCH / "oracle_corpus.json").read_text())["instances"]
    assert len(corpus) == 96
    golden = resources.files("gridflex").joinpath("data", "golden_light20.json")
    docs = [entry["scenario"] for entry in corpus] + [json.loads(golden.read_text())]
    for doc in docs:
        engine.check_scenario(model.scenario_from_dict(doc))
