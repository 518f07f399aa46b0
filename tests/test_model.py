"""Model type invariants, validation, and scenario round-trips."""

import dataclasses
import math

import pytest

from gridflex import workload
from gridflex.model import (
    MAX_HORIZON_SLOTS,
    DeviceRequest,
    MovementOption,
    PowerModeSet,
    Scenario,
    ScenarioFormatError,
    SystemConfig,
    Violation,
    line_movement,
    load_scenario,
    movement_table,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    uniform_movement,
    validate_config,
)


def make_config(num_aggregators=2, budgets=(500.0, 500.0), horizon=12, slot_hours=0.5):
    return SystemConfig(
        num_aggregators=num_aggregators,
        budgets_kw=tuple(budgets),
        horizon_slots=horizon,
        slot_hours=slot_hours,
        movement=line_movement(num_aggregators),
    )


def make_device(**overrides):
    base = dict(
        id="d000",
        arrival_slot=0,
        deadline_slot=12,
        mobile=False,
        initial_energy_kwh=0.0,
        demand_kwh=3.0,
        criticality=1.6,
        modes=PowerModeSet((1.0, 2.0, 3.0)),
        home=0,
    )
    base.update(overrides)
    return DeviceRequest(**base)


class TestMovementMatrix:
    def test_diagonal_is_zero_cost(self):
        mm = line_movement(3)
        assert mm[1][1].total_kwh == 0.0

    def test_total_cost_two_slots(self):
        mm = uniform_movement(2, delay_slots=2, cost_kwh_per_slot=0.15)
        assert mm[0][1].total_kwh == pytest.approx(0.30)

    def test_total_cost_four_slots(self):
        mm = line_movement(5, cost_kwh_per_slot=0.15)
        assert mm[0][4].total_kwh == pytest.approx(0.60)

    def test_lookup_is_total_over_valid_pairs(self):
        mm = line_movement(4)
        assert len(mm) == 4
        for row in mm:
            assert len(row) == 4
            assert all(isinstance(opt, MovementOption) for opt in row)

    def test_total_kwh_is_delay_times_per_slot_cost(self):
        assert MovementOption(3, 0.1).total_kwh == 3 * 0.1
        assert MovementOption(0, 0.0).total_kwh == 0.0

    def test_line_delay_is_index_distance(self):
        mm = line_movement(4, cost_kwh_per_slot=0.2)
        for i in range(4):
            for j in range(4):
                want = MovementOption(0, 0.0) if i == j else MovementOption(abs(i - j), 0.2)
                assert mm[i][j] == want

    def test_uniform_off_diagonal(self):
        mm = uniform_movement(3, delay_slots=2, cost_kwh_per_slot=0.05)
        assert [mm[i][j] for i in range(3) for j in range(3) if i != j] == [
            MovementOption(2, 0.05)
        ] * 6
        assert all(mm[i][i] == MovementOption(0, 0.0) for i in range(3))

    def test_table_asks_off_diagonal_in_row_major_order(self):
        asked = []

        def off_diagonal(i, j):
            asked.append((i, j))
            return MovementOption(1, 0.1)

        movement_table(3, off_diagonal)
        assert asked == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_bad_diagonal_rejected(self):
        # the matrix builds; validate_config reports the value
        mm = ((MovementOption(1, 0.1),),)
        cfg = dataclasses.replace(make_config(1, budgets=(500.0,)), movement=mm)
        assert validate_config(cfg, []) == [
            Violation(None, "movement", "n x n table with a (0, 0) diagonal")
        ]

    def test_zero_delay_off_diagonal_rejected(self):
        mm = (
            (MovementOption(0, 0.0), MovementOption(0, 0.1)),
            (MovementOption(1, 0.1), MovementOption(0, 0.0)),
        )
        cfg = dataclasses.replace(make_config(), movement=mm)
        assert validate_config(cfg, []) == [
            Violation(None, "movement[0][1].delay_slots", "delay >= 1 slot")
        ]


class TestPowerModeSet:
    def test_implicit_zero_mode(self):
        modes = PowerModeSet((1.0, 3.0))
        assert modes.power(0) == 0.0
        assert modes.power(1) == 1.0
        assert modes.power(2) == 3.0

    def test_well_formed_requires_strict_ascent(self):
        assert PowerModeSet((1.0, 2.0)).is_well_formed()
        assert not PowerModeSet((2.0, 2.0)).is_well_formed()
        assert not PowerModeSet((2.0, 1.0)).is_well_formed()
        assert not PowerModeSet(()).is_well_formed()
        assert not PowerModeSet((0.0, 1.0)).is_well_formed()


class TestValidateConfig:
    def test_zero_demand_flagged(self):
        cfg = make_config()
        dev = make_device(demand_kwh=0.0)
        violations = validate_config(cfg, [dev])
        assert any("E_k > 0" in v.rule for v in violations)

    def test_window_feasibility_flagged(self):
        # demand 5 kWh over 4 slots at 0.5 h with a 2 kW top mode: cap is 4
        cfg = make_config(horizon=4)
        dev = make_device(
            modes=PowerModeSet((1.0, 2.0)),
            arrival_slot=0,
            deadline_slot=4,
            demand_kwh=5.0,
        )
        violations = validate_config(cfg, [dev])
        assert len(violations) == 1
        assert "exceeds max deliverable" in violations[0].rule

    def test_well_formed_device_passes(self):
        # 3 kWh over a 12-slot window with modes {1,2,3} kW at 0.5 h slots
        cfg = make_config()
        dev = make_device()
        assert validate_config(cfg, [dev]) == []

    def test_duplicate_ids_flagged(self):
        cfg = make_config()
        violations = validate_config(cfg, [make_device(), make_device()])
        assert any("unique id" in v.rule for v in violations)

    def test_arrival_after_deadline_flagged(self):
        cfg = make_config()
        dev = make_device(arrival_slot=6, deadline_slot=6)
        assert any("R_k < T_k" in v.rule for v in validate_config(cfg, [dev]))

    def test_deadline_beyond_horizon_flagged(self):
        cfg = make_config(horizon=10)
        dev = make_device(deadline_slot=11)
        assert any("T_k <= horizon" in v.rule for v in validate_config(cfg, [dev]))

    def test_bad_budget_flagged(self):
        cfg = SystemConfig(
            num_aggregators=1,
            budgets_kw=(0.0,),
            horizon_slots=4,
            slot_hours=0.5,
            movement=line_movement(1),
        )
        assert any("budget > 0" in v.rule for v in validate_config(cfg, []))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_initial_energy_flagged(self, value):
        dev = make_device(initial_energy_kwh=value)
        violations = validate_config(make_config(), [dev])
        assert [(v.field, v.rule) for v in violations] == [("initial_energy_kwh", "finite")]

    def test_nan_mode_level_flagged(self):
        dev = make_device(modes=PowerModeSet((1.0, math.nan, 3.0)))
        violations = validate_config(make_config(), [dev])
        assert [v.field for v in violations] == ["modes"]

    def test_infinite_top_mode_flagged(self):
        dev = make_device(modes=PowerModeSet((1.0, 2.0, math.inf)))
        violations = validate_config(make_config(), [dev])
        assert [v.field for v in violations] == ["modes"]

    def test_nan_movement_cost_flagged(self):
        cfg = make_config()
        cfg = SystemConfig(
            num_aggregators=2,
            budgets_kw=cfg.budgets_kw,
            horizon_slots=cfg.horizon_slots,
            slot_hours=cfg.slot_hours,
            movement=uniform_movement(2, 1, math.nan),
        )
        violations = validate_config(cfg, [make_device()])
        assert {(v.field, v.rule) for v in violations} == {
            ("movement[0][1].cost_kwh_per_slot", "finite"),
            ("movement[1][0].cost_kwh_per_slot", "finite"),
        }

    def test_infinite_slot_length_flagged(self):
        cfg = make_config(slot_hours=math.inf)
        assert ("slot_hours", "finite") in [(v.field, v.rule) for v in validate_config(cfg, [])]

    def test_beta_max_that_can_overflow_the_total_flagged(self):
        # six devices contend for one 1 kW slot at a time, so four of them run
        # late into the clamp; at beta_max 1e308 the run's total loss was inf
        devices = [
            make_device(
                id=f"d{k}",
                deadline_slot=1,
                demand_kwh=0.5,
                criticality=1000.0,
                modes=PowerModeSet((1.0,)),
            )
            for k in range(6)
        ]
        cfg = SystemConfig(1, (1.0,), 8, 0.5, line_movement(1), beta_max=1e308)
        violations = validate_config(cfg, devices)
        assert [(v.field, v.rule) for v in violations] == [
            ("beta_max", "worst-case total loss finite")
        ]
        # 2 * 48 device-slots * 1e300 stays finite
        assert validate_config(dataclasses.replace(cfg, beta_max=1e300), devices) == []

    @pytest.mark.parametrize(
        "cfg, devices, expected",
        [
            # an empty movement table too: the worst-case bound's maximum
            # move cost is taken over no entry
            (
                make_config(0, budgets=()),
                [],
                [Violation(None, "num_aggregators", "J >= 1")],
            ),
            (make_config(horizon=0), [], [Violation(None, "horizon_slots", "horizon >= 1 slot")]),
            (make_config(slot_hours=0.0), [], [Violation(None, "slot_hours", "slot length > 0")]),
            (
                dataclasses.replace(make_config(), beta_max=0.0),
                [],
                [Violation(None, "beta_max", "penalty constant > 0")],
            ),
            (
                dataclasses.replace(make_config(), movement=line_movement(3)),
                [],
                [Violation(None, "movement", "matrix size matches aggregator count")],
            ),
            (
                # a hand-built table of two rows, the second one short
                dataclasses.replace(
                    make_config(),
                    movement=(
                        (MovementOption(0, 0.0), MovementOption(1, 0.1)),
                        (MovementOption(1, 0.1),),
                    ),
                ),
                [],
                [Violation(None, "movement", "n x n table with a (0, 0) diagonal")],
            ),
            (
                dataclasses.replace(make_config(), movement=uniform_movement(2, -1, 0.1)),
                [],
                [
                    Violation(None, "movement[0][1].delay_slots", "delay >= 1 slot"),
                    Violation(None, "movement[1][0].delay_slots", "delay >= 1 slot"),
                ],
            ),
            (
                dataclasses.replace(make_config(), movement=uniform_movement(2, 1, -0.1)),
                [],
                [
                    Violation(None, "movement[0][1].cost_kwh_per_slot", "cost >= 0"),
                    Violation(None, "movement[1][0].cost_kwh_per_slot", "cost >= 0"),
                ],
            ),
            (make_config(), [make_device(id="")], [Violation("", "id", "non-empty id")]),
            (
                make_config(),
                [make_device(arrival_slot=-1)],
                [Violation("d000", "arrival_slot", "R_k >= 0")],
            ),
            (
                make_config(),
                [make_device(initial_energy_kwh=-1.0)],
                [Violation("d000", "initial_energy_kwh", "I_k >= 0")],
            ),
            (
                make_config(),
                [make_device(criticality=0.0)],
                [Violation("d000", "criticality", "criticality > 0")],
            ),
        ],
        ids=[
            "no-aggregator",
            "zero-horizon",
            "zero-slot-length",
            "zero-beta-max",
            "matrix-size",
            "matrix-shape",
            "negative-delay",
            "negative-cost",
            "empty-id",
            "negative-arrival",
            "negative-initial-energy",
            "zero-criticality",
        ],
    )
    def test_rule_flagged(self, cfg, devices, expected):
        assert validate_config(cfg, devices) == expected

    def test_horizon_at_ceiling_passes(self):
        # validation only: no horizon of this length is run
        cfg = make_config(horizon=MAX_HORIZON_SLOTS)
        assert validate_config(cfg, [make_device()]) == []

    def test_horizon_past_ceiling_flagged(self):
        cfg = make_config(horizon=MAX_HORIZON_SLOTS + 1)
        violations = validate_config(cfg, [])
        assert [(v.field, v.rule) for v in violations] == [
            ("horizon_slots", f"horizon <= {MAX_HORIZON_SLOTS} slots")
        ]

    def test_delay_at_ceiling_passes(self):
        cfg = dataclasses.replace(
            make_config(), movement=uniform_movement(2, MAX_HORIZON_SLOTS, 0.1)
        )
        assert validate_config(cfg, [make_device()]) == []

    def test_delay_past_ceiling_flagged(self):
        # a decoded delay of 10**400 slots: its move energy overflowed a float
        doc = scenario_to_dict(Scenario("far", make_config(), (make_device(),)))
        for pair in doc["config"]["movement"]["pairs"]:
            pair["delay_slots"] = 10**400
        scenario = scenario_from_dict(doc)
        violations = validate_config(scenario.config, scenario.devices)
        assert [(v.field, v.rule) for v in violations] == [
            ("movement[0][1].delay_slots", f"delay <= {MAX_HORIZON_SLOTS} slots"),
            ("movement[1][0].delay_slots", f"delay <= {MAX_HORIZON_SLOTS} slots"),
        ]


class TestScenarioRoundTrip:
    def test_dict_round_trip(self):
        cfg = make_config()
        devices = (make_device(), make_device(id="d001", mobile=True, home=1))
        scenario = Scenario("rt-test", cfg, devices)
        doc = scenario_to_dict(scenario)
        back = scenario_from_dict(doc)
        assert back == scenario

    def test_equal_mode_levels_share_one_set(self):
        devices = (
            make_device(id="d0", modes=PowerModeSet((1.0, 2.0))),
            make_device(id="d1", modes=PowerModeSet((1.0, 2.0))),
            make_device(id="d2", modes=PowerModeSet((1.0, 3.0))),
        )
        doc = scenario_to_dict(Scenario("m", make_config(), devices))
        doc["devices"][1]["modes_kw"] = [1, 2]  # integers decode to the same levels
        back = scenario_from_dict(doc)
        assert back.devices[0].modes is back.devices[1].modes
        assert back.devices[0].modes is not back.devices[2].modes
        assert back == Scenario("m", make_config(), devices)

    def test_generated_scenario_round_trips_through_a_file(self, tmp_path):
        scenario = workload.generate(workload.GenSpec(num_devices=100, seed=3))
        path = tmp_path / "gen.json"
        save_scenario(scenario, path)
        back = load_scenario(path)
        assert back == scenario
        # one set object per distinct level tuple
        assert len({id(d.modes) for d in back.devices}) == len({d.modes for d in back.devices})

    def test_missing_field_raises_format_error(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict({"id": "x", "devices": []})

    def test_unknown_schema_version_rejected(self):
        doc = scenario_to_dict(Scenario("v", make_config(), (make_device(),)))
        doc["schema_version"] = 99
        with pytest.raises(ScenarioFormatError, match="schema_version 99"):
            scenario_from_dict(doc)
        # `true` is not the integer 1
        doc["schema_version"] = True
        with pytest.raises(ScenarioFormatError, match="schema_version must be an integer"):
            scenario_from_dict(doc)

    def test_integral_float_decodes_to_int(self):
        doc = scenario_to_dict(Scenario("f", make_config(), (make_device(),)))
        doc["schema_version"] = 1.0
        doc["devices"][0]["deadline_slot"] = 12.0
        doc["config"]["movement"]["pairs"][0]["delay_slots"] = 1.0
        back = scenario_from_dict(doc)
        assert type(back.devices[0].deadline_slot) is int
        assert back == scenario_from_dict(scenario_to_dict(back))

    @pytest.mark.parametrize(
        "pair",
        [(0, 0), (9, 0), (1, -1), (0, 1)],
        ids=["diagonal", "from-out-of-range", "to-negative", "repeated"],
    )
    def test_movement_pair_read_whole(self, pair):
        # every pair is read: none may be ignored or overwritten by a later one
        doc = scenario_to_dict(Scenario("p", make_config(), (make_device(),)))
        i, j = pair
        doc["config"]["movement"]["pairs"].append(
            {"from": i, "to": j, "delay_slots": 3, "cost_kwh_per_slot": 0.4}
        )
        with pytest.raises(ScenarioFormatError, match=f"bad movement matrix: pair {i}->{j} is "):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("devices", 0, "arrival_slot"), 0.7, "arrival_slot must be an integer"),
            (("devices", 0, "arrival_slot"), True, "arrival_slot must be an integer"),
            (("devices", 0, "arrival_slot"), False, "arrival_slot must be an integer"),
            (("devices", 0, "arrival_slot"), "3", "arrival_slot must be an integer"),
            (("devices", 0, "arrival_slot"), None, "arrival_slot must be an integer"),
            (("devices", 0, "mobile"), "false", "mobile must be a boolean, got 'false'"),
            (("devices", 0, "id"), None, "id must be a string, got None"),
            (("id",), 7, "id must be a string, got 7"),
            (("devices", 0, "modes_kw"), "123", "modes_kw must be a list, got '123'"),
            (
                ("devices", 0, "modes_kw"),
                [1, "3"],
                "modes_kw must be a list of numbers, got \\[1, '3'\\]",
            ),
            (("config", "budgets_kw"), "44", "budgets_kw must be a list, got '44'"),
            (("config", "budgets_kw"), [40, True], "budgets_kw must be a list of numbers"),
            (("devices", 0, "demand_kwh"), "0.5", "demand_kwh must be a number, got '0.5'"),
            (("devices", 0, "initial_energy_kwh"), None, "initial_energy_kwh must be a number"),
            (("devices", 0, "criticality"), [1.6], "criticality must be a number"),
            (("config", "slot_hours"), True, "slot_hours must be a number, got True"),
            (("config", "beta_max"), "1e9", "beta_max must be a number"),
            (
                ("config", "movement", "pairs", 0, "cost_kwh_per_slot"),
                "0.1",
                "cost_kwh_per_slot must be a number",
            ),
        ],
        ids=[
            "0.7", "True", "False", "3", "None", "mobile", "device-id", "scenario-id",
            "modes-string", "mode-string", "budgets-string", "budget-bool", "demand-string",
            "initial-null", "criticality-list", "slot-hours-bool", "beta-max-string",
            "move-cost-string",
        ],
    )
    def test_inexact_integer_rejected(self, path, value, message):
        # truncating 0.7 to 0 or True to 1 would accept a different scenario,
        # as bool("false") or str(None) would
        doc = scenario_to_dict(Scenario("i", make_config(), (make_device(),)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ScenarioFormatError, match=message):
            scenario_from_dict(doc)
