"""The benchmark under `perfbench/` looks gridflex names up at call time.

Deleting or renaming one of them breaks the benchmark without failing any
other test; this installs the benchmark's layer tracer and checks the
names its workloads call.
"""

from pathlib import Path

from gridflex import baselines, cli, engine, exact, heuristic, utility

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


def test_workload_entry_points_exist():
    assert callable(heuristic.run_scenario)
    assert callable(exact.solve_exact)
    assert callable(engine.replay_loss)
    assert callable(engine.decisions_from_dict)
    assert callable(engine.worker_count)
    assert callable(heuristic.HorizonResult.total_loss.fget)
    assert {baselines.edf_rank.__name__, baselines.hp_rank.__name__} == {"edf_rank", "hp_rank"}
