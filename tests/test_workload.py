"""Generator band targeting, determinism, and session ingestion."""

import math

import pytest

from gridflex.model import Scenario, ScenarioFormatError, scenario_to_dict, validate_config
from gridflex.workload import (
    GenSpec,
    GenerationError,
    IngestSpec,
    LOAD_CLASSES,
    SessionRecord,
    generate,
    ingest_sessions,
    micro_instances,
    parse_sessions,
)

from datetime import datetime


def cluster_utilizations(scenario: Scenario) -> list[float]:
    """Achieved demand / capacity per cluster, for post-hoc band audits."""
    cfg = scenario.config
    capacity = [
        cfg.budgets_kw[j] * cfg.slot_hours * cfg.horizon_slots
        for j in range(cfg.num_aggregators)
    ]
    totals = [0.0] * cfg.num_aggregators
    for dev in scenario.devices:
        totals[dev.home] += dev.demand_kwh
    return [t / c for t, c in zip(totals, capacity)]


class TestGenerate:
    def test_zero_mobile_fraction(self):
        scenario = generate(
            GenSpec(num_devices=10, class_combo=("L", "L"), mobile_fraction=0.0, seed=3)
        )
        assert all(not d.mobile for d in scenario.devices)

    def test_full_mobile_fraction(self):
        scenario = generate(
            GenSpec(num_devices=10, class_combo=("L", "L"), mobile_fraction=1.0, seed=3)
        )
        assert all(d.mobile for d in scenario.devices)

    def test_smallest_grid_count_reaches_every_combo(self):
        combos = [
            ("L", "L", "L", "M", "H"),
            ("L", "L", "M", "M", "H"),
            ("L", "M", "M", "M", "H"),
            ("L", "L", "M", "H", "H"),
        ]
        for combo in combos:
            scenario = generate(GenSpec(num_devices=20, class_combo=combo, seed=1))
            assert validate_config(scenario.config, scenario.devices) == []

    def test_utilizations_inside_drawn_bands(self):
        spec = GenSpec(
            num_devices=60, class_combo=("L", "L", "M", "M", "H"), seed=42
        )
        scenario = generate(spec)
        utils = cluster_utilizations(scenario)
        for cls, util in zip(spec.class_combo, utils):
            low, high = LOAD_CLASSES[cls]
            assert low * 0.99 <= util <= high * 1.01, (cls, util)

    def test_all_devices_pass_validation(self):
        for seed in range(5):
            scenario = generate(GenSpec(num_devices=40, seed=seed))
            assert validate_config(scenario.config, scenario.devices) == []

    def test_periodic_instances_chain_arrival_to_deadline(self):
        scenario = generate(GenSpec(num_devices=20, seed=11))
        by_device = {}
        for dev in scenario.devices:
            root, _, inst = dev.id.partition("#")
            by_device.setdefault(root, []).append((int(inst), dev))
        for root, entries in by_device.items():
            entries.sort()
            for (_, prev), (_, nxt) in zip(entries, entries[1:]):
                assert nxt.arrival_slot == prev.deadline_slot

    def test_seed_determinism(self):
        spec = GenSpec(num_devices=30, seed=77)
        a = generate(spec)
        b = generate(spec)
        assert scenario_to_dict(a) == scenario_to_dict(b)

    def test_different_seeds_differ(self):
        a = generate(GenSpec(num_devices=30, seed=1))
        b = generate(GenSpec(num_devices=30, seed=2))
        assert scenario_to_dict(a) != scenario_to_dict(b)

    def test_unreachable_band_raises(self):
        # one device at the 50 kW top pool mode cannot carry a high-band
        # aggregator's full-horizon load (3,293.62 kWh against 1,249.98)
        spec = GenSpec(num_devices=1, class_combo=("H",), seed=0)
        with pytest.raises(GenerationError):
            generate(spec)

    def test_cluster_without_devices_raises(self):
        # one device, two aggregators: aggregator 1 is nobody's home (at
        # this seed aggregator 0's draw is low enough for one device)
        spec = GenSpec(1, ("L", "L"), 0.5, seed=25)
        with pytest.raises(GenerationError, match="^cluster 1 has no devices to carry its load$"):
            generate(spec)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            generate(GenSpec(num_devices=5, class_combo=("X",), seed=0))
        # no class at all used to divide by zero placing the homes
        with pytest.raises(ValueError, match="class_combo"):
            generate(GenSpec(num_devices=5, class_combo=(), seed=0))

    @pytest.mark.parametrize("num_devices", [0, -5])
    def test_device_count_below_one_rejected(self, num_devices):
        # -5 used to fail inside numpy with "negative dimensions"
        with pytest.raises(ValueError, match="num_devices"):
            generate(GenSpec(num_devices=num_devices))

    @pytest.mark.parametrize("fraction", [-0.25, -0.5, 1.01, math.nan, math.inf])
    def test_mobile_fraction_outside_unit_interval_rejected(self, fraction):
        # -0.25 used to make 30 of 40 devices mobile through a negative slice
        with pytest.raises(ValueError, match="mobile_fraction"):
            generate(GenSpec(num_devices=40, mobile_fraction=fraction))

    def test_cluster_demand_equals_band_times_capacity(self):
        # 80% of a 100 kW x 0.5 h x 50-slot cluster is 2000 kWh
        spec = GenSpec(num_devices=50, class_combo=("L",), seed=5)
        scenario = generate(spec)
        capacity = 100.0 * 0.5 * 50
        total = sum(d.demand_kwh for d in scenario.devices)
        util = total / capacity
        assert 0.5 * 0.99 <= util <= 1.0 * 1.01
        # rounding drift across K instances stays within 0.01 kWh each
        assert total == pytest.approx(util * capacity, abs=0.01 * len(scenario.devices))


class TestMicroInstances:
    def test_all_validate(self):
        for scenario in micro_instances(20, seed=4):
            assert validate_config(scenario.config, scenario.devices) == []

    def test_deterministic(self):
        a = micro_instances(5, seed=9)
        b = micro_instances(5, seed=9)
        assert [scenario_to_dict(s) for s in a] == [scenario_to_dict(s) for s in b]

    def test_respects_caps(self):
        for scenario in micro_instances(20, seed=8):
            assert len(scenario.devices) <= 3
            assert scenario.config.horizon_slots <= 6
            assert scenario.config.num_aggregators <= 2


SESSIONS_CSV = """arrival,departure,kwh,station
2020-03-02T18:00:00,2020-03-03T06:00:00,20.0,ST-01
2020-03-02T08:15:00,2020-03-02T16:45:00,12.5,ST-02
2020-03-02T09:00:00,2020-03-02T08:00:00,9.0,ST-01
2020-03-02T10:00:00,2020-03-02T14:00:00,-3.0,ST-03
2020-03-02T23:40:00,2020-03-03T03:00:00,6.0,ST-02
bad,row,here,x
"""


class TestParseSessions:
    def test_parses_and_skips(self):
        records, skipped = parse_sessions(SESSIONS_CSV)
        assert len(records) == 3
        assert skipped == 3  # reversed times, negative energy, bad row

    @pytest.mark.parametrize(
        "row",
        [
            # an offset-aware arrival cannot be compared with a naive departure
            "2020-01-01T10:00:00+05:00,2020-01-01T12:00:00,5,a",
            "2020-01-01T10:00:00,2020-01-01T12:00:00+05:00,5,a",
            "2020-01-01T10:00:00,2020-01-01T12:00:00,nan,a",
            "2020-01-01T10:00:00,2020-01-01T12:00:00,inf,a",
            "2020-01-01T10:00:00,2020-01-01T12:00:00,1e400,a",
        ],
        ids=["aware-arrival", "aware-departure", "nan-kwh", "inf-kwh", "overflowing-kwh"],
    )
    def test_unreadable_row_skipped(self, row):
        records, skipped = parse_sessions(f"arrival,departure,kwh,station\n{row}\n")
        assert (records, skipped) == ([], 1)

    def test_both_timestamps_with_offsets_read(self):
        records, skipped = parse_sessions(
            "arrival,departure,kwh,station\n"
            "2020-01-01T10:00:00+05:00,2020-01-01T12:00:00+05:00,5,a\n"
        )
        assert skipped == 0
        assert records[0].energy_kwh == 5.0

    def test_empty_input(self):
        records, skipped = parse_sessions("arrival,departure,kwh,station\n")
        assert records == []
        assert skipped == 0

    @pytest.mark.parametrize(
        "text, missing",
        [
            ("", "arrival, departure, kwh, station"),
            ('{"scenario_id": "x"}\n', "arrival, departure, kwh, station"),
            ("station,kwh,arrival\nST-01,1.0,2020-03-02T18:00:00\n", "departure"),
        ],
    )
    def test_missing_columns_raise(self, text, missing):
        with pytest.raises(ScenarioFormatError, match=f"lacks column\\(s\\): {missing}$"):
            parse_sessions(text)


class TestIngestSessions:
    def test_evening_session_maps_to_slot_36(self):
        records = [
            SessionRecord(
                datetime(2020, 3, 2, 18, 0),
                datetime(2020, 3, 3, 6, 0),
                20.0,
                "ST-01",
            )
        ]
        scenario, dropped = ingest_sessions(records, IngestSpec(seed=1))
        assert dropped == 0
        dev = scenario.devices[0]
        assert dev.arrival_slot == 36
        # 12-hour stay runs past midnight; deadline clips to the last slot
        assert dev.deadline_slot == 47
        assert dev.demand_kwh == pytest.approx(20.0)

    @pytest.mark.parametrize("fraction", [-0.5, 1.5, math.nan])
    def test_mobile_fraction_outside_unit_interval_rejected(self, fraction):
        # NaN used to make every device stationary
        records, _ = parse_sessions(SESSIONS_CSV)
        with pytest.raises(ValueError, match="mobile_fraction"):
            ingest_sessions(records, IngestSpec(mobile_fraction=fraction))

    def test_empty_records_empty_scenario(self):
        scenario, dropped = ingest_sessions([], IngestSpec())
        assert scenario.devices == ()
        assert dropped == 0
        assert scenario.config.horizon_slots == 48

    def test_last_slot_arrival_dropped(self):
        records = [
            SessionRecord(
                datetime(2020, 3, 2, 23, 45),
                datetime(2020, 3, 3, 2, 0),
                5.0,
                "ST-01",
            )
        ]
        scenario, dropped = ingest_sessions(records, IngestSpec())
        assert dropped == 1
        assert scenario.devices == ()

    def test_undeliverable_session_dropped(self):
        # 100 kWh in one half-hour slot needs 200 kW; the top pool mode is 50 kW
        records = [
            SessionRecord(
                datetime(2020, 3, 2, 10, 0),
                datetime(2020, 3, 2, 10, 30),
                100.0,
                "ST-01",
            )
        ]
        scenario, dropped = ingest_sessions(records, IngestSpec())
        assert dropped == 1
        assert scenario.devices == ()

    def test_ingested_scenario_validates(self):
        records, _ = parse_sessions(SESSIONS_CSV)
        scenario, _ = ingest_sessions(records, IngestSpec(seed=7))
        assert validate_config(scenario.config, scenario.devices) == []

    def test_mode_is_smallest_feasible_pool_mode(self):
        records = [
            SessionRecord(
                datetime(2020, 3, 2, 8, 0),
                datetime(2020, 3, 2, 18, 0),
                19.0,
                "ST-01",
            )
        ]
        scenario, _ = ingest_sessions(records, IngestSpec(seed=0))
        dev = scenario.devices[0]
        # 19 kWh over 20 slots x 0.5 h needs 1.9 kW: smallest pool mode is 2
        assert dev.modes.max_kw == 2.0

    def test_seed_determinism(self):
        records, _ = parse_sessions(SESSIONS_CSV)
        a, _ = ingest_sessions(records, IngestSpec(seed=5))
        b, _ = ingest_sessions(records, IngestSpec(seed=5))
        assert scenario_to_dict(a) == scenario_to_dict(b)
