"""Engine packaging: validator gate, replay, determinism, experiments."""

import dataclasses
import json
import threading

import pytest

from gridflex import engine, heuristic, workload
from gridflex.engine import (
    GroupStats,
    InfeasibleRunError,
    InvalidScenarioError,
    baseline_compare,
    improvement_report,
    metrics_table,
    mobility_delta_experiment,
    replay_loss,
    run,
    sample_grid,
)
from gridflex.exact import validate_schedule
from gridflex.model import (
    IDLE,
    DeviceRequest,
    Idle,
    Move,
    Scenario,
    Serve,
    SystemConfig,
    line_movement,
    uniform_movement,
)
from gridflex.utility import row_loss
from loss_oracle import oracle_mismatches


def small_scenario(seed=0):
    return workload.generate(
        workload.GenSpec(num_devices=20, class_combo=("L", "L", "M", "M", "H"), seed=seed)
    )


@pytest.fixture(scope="module")
def congested():
    return small_scenario(seed=42)


class TestRun:
    def test_empty_scenario_zero_loss(self):
        cfg = SystemConfig(1, (10.0,), 4, 0.5, line_movement(1))
        result = run(Scenario("empty", cfg, ()), "heuristic")
        assert result.total_loss == 0.0

    def test_unknown_scheduler(self, congested):
        with pytest.raises(KeyError):
            run(congested, "fifo")

    def test_invalid_scenario_rejected(self):
        cfg = SystemConfig(1, (10.0,), 4, 0.5, line_movement(1))
        bad = DeviceRequest(
            id="x", arrival_slot=0, deadline_slot=4, mobile=False,
            initial_energy_kwh=0.0, demand_kwh=-1.0, criticality=1.6,
            modes_kw=(1.0,), home=0,
        )
        with pytest.raises(InvalidScenarioError):
            run(Scenario("bad", cfg, (bad,)), "heuristic")

    def test_infeasible_schedule_rejected(self, monkeypatch):
        # a scheduler that serves m0 at a mode outside its set in slot 0
        # and moves it from an aggregator that does not exist in slot 1
        real = heuristic.run_horizon

        def broken(*args, **kwargs):
            horizon = real(*args, **kwargs)
            horizon.decisions["m0"][:2] = [Serve(9, 0), Move(7, 1)]
            return horizon

        monkeypatch.setattr(heuristic, "run_horizon", broken)
        with pytest.raises(InfeasibleRunError) as info:
            run(workload.micro_instances(1, seed=3)[0], "heuristic")
        assert str(info.value) == (
            "scheduler heuristic produced an infeasible schedule: "
            "(i) device=m0 slot=0; (v) device=m0 slot=1"
        )

    def test_mobility_defaults_per_scheduler(self, congested):
        assert run(congested, "heuristic").mobility_enabled is True
        assert run(congested, "edf").mobility_enabled is False
        assert run(congested, "hp").mobility_enabled is False

    def test_total_equals_per_device_sum(self, congested):
        result = run(congested, "heuristic")
        assert result.total_loss == pytest.approx(
            sum(row["loss_total"] for row in result.per_device.values()), abs=1e-9
        )

    def test_repeat_run_identical_bytes(self, congested):
        a = run(congested, "heuristic").canonical_json()
        b = run(congested, "heuristic").canonical_json()
        assert a == b

    def test_canonical_json_has_no_timing(self, congested):
        doc = json.loads(run(congested, "heuristic").canonical_json())
        assert "slot_wall_s" not in doc
        assert "slot_wall_s" in run(congested, "heuristic").to_dict()


class TestJsonChunks:
    """`RunResult.json_chunks` writes the same text as dumping `to_dict`."""

    @staticmethod
    def result(decisions):
        return engine.RunResult(
            scenario_id="chunks",
            scheduler="heuristic",
            mobility_enabled=True,
            total_loss=1.5,
            per_device={k: {"loss_total": 0.5} for k in decisions},
            decisions=decisions,
            utilization_kw=[[1.0, 0.0], [0.5, 2.0]],
            slot_wall_s=[0.001, 0.002],
        )

    @pytest.mark.parametrize(
        "decisions",
        [
            {
                # ids that JSON must escape, in an order `sorted` changes
                "t\tb": [Serve(2, 1), IDLE],
                'a"b': [Move(0, 1), Move(0, 1)],
                "c\\d": [Idle(), Serve(1, 0)],
                "é": [IDLE, IDLE],
                "empty": [],
            },
            {},
        ],
        ids=["escaped-ids", "no-rows"],
    )
    @pytest.mark.parametrize("timing", [True, False])
    def test_chunks_equal_dumped_dict(self, decisions, timing):
        r = self.result(decisions)
        want = json.dumps(r.to_dict(timing), sort_keys=True, allow_nan=False)
        assert "".join(r.json_chunks(timing)) == want
        if not timing:
            assert r.canonical_json() == want


class TestReplay:
    @pytest.mark.parametrize("scheduler", ["heuristic", "edf", "hp"])
    def test_replay_reproduces_total_exactly(self, congested, scheduler):
        result = run(congested, scheduler)
        assert replay_loss(congested, result.decisions) == result.total_loss
        # replay shares `row_loss` with the engine; the oracle does not
        assert oracle_mismatches(
            congested.devices, congested.config, result.decisions, result.per_device
        ) == []

    def test_replay_with_mobility_moves(self):
        # engineered so a mobile device actually migrates
        cfg = SystemConfig(2, (2.0, 2.0), 12, 0.5, line_movement(2, 0.15))
        devices = (
            DeviceRequest("a", 0, 6, False, 0.0, 6.0, 1.6, (2.0,), 0),
            DeviceRequest("b", 0, 6, True, 1.0, 6.0, 1.8, (2.0,), 0),
        )
        scenario = Scenario("mover", cfg, devices)
        result = run(scenario, "heuristic", mobility=True)
        assert any("M" in a for a in json.loads(result.canonical_json())["decisions"]["b"])
        assert replay_loss(scenario, result.decisions) == pytest.approx(
            result.total_loss, abs=1e-9
        )


class TestConservation:
    def test_energy_bounds(self, congested):
        result = run(congested, "heuristic")
        cfg = congested.config
        for j in range(cfg.num_aggregators):
            served = sum(row[j] for row in result.utilization_kw) * cfg.slot_hours
            assert served <= cfg.budgets_kw[j] * cfg.slot_hours * cfg.horizon_slots + 1e-6
        for dev in congested.devices:
            row = result.per_device[dev.id]
            assert row["progress_kwh"] <= dev.demand_kwh + row["extra_demand_kwh"] + 1e-9


class TestImprovementReport:
    def _fake(self, name, loss):
        return engine.RunResult(
            scenario_id="x", scheduler=name, mobility_enabled=False,
            total_loss=loss, per_device={}, decisions={}, utilization_kw=[], slot_wall_s=[],
        )

    def test_percentage_arithmetic(self):
        results = {
            "heuristic": self._fake("heuristic", 1606.63),
            "edf": self._fake("edf", 3939.27),
            "hp": self._fake("hp", 3757.18),
        }
        report = improvement_report(results)
        assert report["edf"] == pytest.approx(59.21, abs=0.01)
        assert report["hp"] == pytest.approx(57.24, abs=0.01)

    def test_equal_losses_zero_percent(self):
        results = {
            "heuristic": self._fake("heuristic", 5.0),
            "edf": self._fake("edf", 5.0),
        }
        assert improvement_report(results)["edf"] == pytest.approx(0.0)

    def test_zero_baseline_is_na(self):
        results = {
            "heuristic": self._fake("heuristic", 0.0),
            "edf": self._fake("edf", 0.0),
        }
        assert improvement_report(results)["edf"] == "n/a"


def with_fresh_idles(decisions):
    """The same matrix with every IDLE singleton replaced by its own Idle()."""
    return {k: [Idle() if a is IDLE else a for a in row] for k, row in decisions.items()}


class TestFreshIdleInstance:
    """Serialization, row scoring and the validator skip the IDLE singleton
    (or any Idle) on fast paths; an Idle() that is not the singleton must
    come out exactly as the singleton does."""

    def test_run_matrix_encoded_scored_and_validated_alike(self, congested):
        result = run(congested, "heuristic")
        fresh = with_fresh_idles(result.decisions)
        assert Idle() is not IDLE
        assert any(isinstance(a, Move) for row in fresh.values() for a in row)
        as_fresh = dataclasses.replace(result, decisions=fresh)
        assert as_fresh.canonical_json() == result.canonical_json()
        cfg = congested.config
        for dev in congested.devices:
            assert row_loss(dev, fresh[dev.id], cfg) == row_loss(
                dev, result.decisions[dev.id], cfg
            )
        devices = list(congested.devices)
        report = validate_schedule(fresh, cfg, devices)
        assert report.all_pass
        assert report.summary() == validate_schedule(result.decisions, cfg, devices).summary()

    def test_late_row_and_interrupted_transit_alike(self):
        # late idle slots cost; an idle slot inside a two-slot transit breaks it
        cfg = SystemConfig(2, (2.0, 2.0), 5, 0.5, uniform_movement(2, 2, 0.1))
        dev = DeviceRequest(
            id="a", arrival_slot=0, deadline_slot=1, mobile=True,
            initial_energy_kwh=1.0, demand_kwh=4.0, criticality=1.6,
            modes_kw=(2.0,), home=0,
        )
        row = [Serve(1, 0), Move(0, 1), IDLE, IDLE, IDLE]
        fresh = with_fresh_idles({"a": row})
        singleton = row_loss(dev, row, cfg)
        assert singleton.deadline_loss > 0.0
        assert row_loss(dev, fresh["a"], cfg) == singleton
        reports = [validate_schedule(m, cfg, [dev]) for m in ({"a": row}, fresh)]
        assert reports[0].checks["vi"].witness == ("a", 2)
        assert reports[0].summary() == reports[1].summary()


class TestExperiments:
    def test_all_stationary_spec_zero_deltas(self):
        specs = [
            workload.GenSpec(num_devices=20, mobile_fraction=0.0, seed=s)
            for s in range(3)
        ]
        summary = mobility_delta_experiment(specs)
        for values in summary.samples.values():
            assert all(v == 0.0 for v in values)

    def test_summary_grouping_and_table(self):
        specs = sample_grid([20], samples_per_count=4, seed=1)
        summary = mobility_delta_experiment(specs)
        assert sum(s.count for s in summary.groups.values()) == 4
        table = metrics_table(summary)
        assert table.startswith("device_count\tmobile_fraction")
        assert len(table.strip().splitlines()) == 1 + len(summary.groups)

    @pytest.mark.parametrize(
        "pools", [{"class_combos": ()}, {"mobile_fractions": ()}], ids=["combos", "fractions"]
    )
    def test_sample_grid_empty_pool_rejected(self, pools):
        # an empty pool used to divide by zero in the rotation
        with pytest.raises(ValueError, match=next(iter(pools))):
            sample_grid([20], samples_per_count=2, **pools)

    def test_baseline_compare_keys(self, congested):
        results = baseline_compare(congested)
        assert set(results) == {"heuristic", "edf", "hp"}

    def test_experiments_run_serially_in_input_order(self, congested, monkeypatch):
        calls = []
        real_run = engine.run

        def recording_run(scenario, scheduler="heuristic", mobility=None):
            calls.append((threading.get_ident(), scenario.scenario_id, scheduler, mobility))
            return real_run(scenario, scheduler, mobility)

        monkeypatch.setattr(engine, "run", recording_run)
        here = threading.get_ident()

        assert list(baseline_compare(congested)) == ["heuristic", "edf", "hp"]
        assert calls == [
            (here, congested.scenario_id, name, None) for name in ("heuristic", "edf", "hp")
        ]

        calls.clear()
        specs = sample_grid([20], samples_per_count=3, seed=1)
        mobility_delta_experiment(specs)
        assert calls == [
            (here, workload.generate(spec).scenario_id, "heuristic", mobility)
            for spec in specs
            for mobility in (True, False)
        ]

    def test_group_stats(self):
        stats = GroupStats.from_samples([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.q25 <= stats.median <= stats.q75
