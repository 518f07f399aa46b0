"""Validator semantics, exact-solver optimality, and the oracle inequality.

`brute_force_optimum` re-derives the optimal loss by generating every
per-device action sequence from first principles (itertools.product over
replayed per-slot candidate actions), scoring rows with the pure replay
function, and filtering infeasible joint budgets. It shares no search
code with the branch-and-bound solver.
"""

import itertools
import math

import pytest

from gridflex import engine, exact, workload
from gridflex.exact import (
    CapExceededError,
    ExactCaps,
    ExactInstance,
    ScheduleFormatError,
    solve_exact,
    validate_schedule,
)
from gridflex.model import (
    DeviceRequest,
    IDLE,
    Idle,
    Move,
    PowerModeSet,
    Scenario,
    Serve,
    SystemConfig,
    line_movement,
    uniform_movement,
)
from gridflex.utility import row_loss


def make_cfg(num_aggregators=1, budget=2.0, horizon=4, delay=1, cost=0.1):
    if num_aggregators == 1:
        movement = line_movement(1)
    else:
        movement = uniform_movement(num_aggregators, delay, cost)
    return SystemConfig(
        num_aggregators=num_aggregators,
        budgets_kw=tuple([budget] * num_aggregators),
        horizon_slots=horizon,
        slot_hours=0.5,
        movement=movement,
    )


def make_request(dev_id, modes, demand, deadline, arrival=0, kappa=1.6,
                 mobile=False, initial=0.0, home=0):
    return DeviceRequest(
        id=dev_id,
        arrival_slot=arrival,
        deadline_slot=deadline,
        mobile=mobile,
        initial_energy_kwh=initial,
        demand_kwh=demand,
        criticality=kappa,
        modes=PowerModeSet(tuple(float(m) for m in modes)),
        home=home,
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _device_rows(dev: DeviceRequest, cfg: SystemConfig):
    """All legal action rows for one device, built by replaying state."""

    def extend(row, slot, location, transit, progress, extra, spent):
        if slot == cfg.horizon_slots:
            if transit is None:
                yield tuple(row)
            return
        if slot < dev.arrival_slot:
            yield from extend(row + [IDLE], slot + 1, location, transit, progress, extra, spent)
            return
        if transit is not None:
            origin, target, remaining = transit
            nxt = None if remaining == 1 else (origin, target, remaining - 1)
            loc = target if nxt is None else location
            yield from extend(
                row + [Move(origin, target)], slot + 1, loc, nxt, progress, extra, spent
            )
            return
        # idle is always allowed
        yield from extend(row + [IDLE], slot + 1, location, transit, progress, extra, spent)
        deficit = dev.demand_kwh + extra - progress
        if deficit > 1e-9:
            for mode_index in range(1, dev.modes.count + 1):
                delivered = dev.modes.power(mode_index) * cfg.slot_hours
                new_progress = min(progress + delivered, dev.demand_kwh + extra)
                yield from extend(
                    row + [Serve(mode_index, location)],
                    slot + 1, location, None, new_progress, extra, spent,
                )
            if dev.mobile:
                for target in range(cfg.num_aggregators):
                    if target == location:
                        continue
                    opt = cfg.movement[location][target]
                    cost = opt.delay_slots * opt.cost_kwh_per_slot
                    available = dev.initial_energy_kwh + progress - spent
                    if cost > available + 1e-9:
                        continue
                    if slot + opt.delay_slots > cfg.horizon_slots - 1:
                        continue
                    nxt = None if opt.delay_slots == 1 else (location, target, opt.delay_slots - 1)
                    loc = target if nxt is None else location
                    yield from extend(
                        row + [Move(location, target)],
                        slot + 1, loc, nxt, progress, extra + cost, spent + cost,
                    )

    yield from extend([], 0, dev.home, None, 0.0, 0.0, 0.0)


def brute_force_optimum(scenario: Scenario) -> float:
    cfg = scenario.config
    devices = sorted(scenario.devices, key=lambda d: d.id)
    rows_per_device = [list(_device_rows(d, cfg)) for d in devices]
    best = math.inf
    for combo in itertools.product(*rows_per_device):
        # joint budget feasibility
        feasible = True
        for t in range(cfg.horizon_slots):
            used = [0.0] * cfg.num_aggregators
            for dev, row in zip(devices, combo):
                action = row[t]
                if isinstance(action, Serve):
                    used[action.aggregator] += dev.modes.power(action.mode_index)
            if any(u > cfg.budgets_kw[j] + 1e-9 for j, u in enumerate(used)):
                feasible = False
                break
        if not feasible:
            continue
        loss = sum(row_loss(dev, row, cfg).total for dev, row in zip(devices, combo))
        best = min(best, loss)
    return best


# ---------------------------------------------------------------------------
# Validator
# ---------------------------------------------------------------------------


class TestValidateSchedule:
    def test_all_idle_passes(self):
        cfg = make_cfg()
        devs = [make_request("a", [2], 1.0, 2)]
        report = validate_schedule({"a": [IDLE] * 4}, cfg, devs)
        assert report.all_pass

    def test_budget_overflow_witnessed(self):
        cfg = make_cfg(budget=500.0, horizon=2)
        devs = [
            make_request("a", [300], 150.0, 2),
            make_request("b", [300], 150.0, 2),
        ]
        decisions = {
            "a": [Serve(1, 0), IDLE],
            "b": [Serve(1, 0), IDLE],
        }
        report = validate_schedule(decisions, cfg, devs)
        assert not report.checks["iii"].passed
        assert report.checks["iii"].witness[1] == 0

    def test_serve_during_transit_fails_exclusivity(self):
        cfg = make_cfg(num_aggregators=2, horizon=5, delay=2)
        devs = [make_request("a", [2], 2.0, 4, mobile=True, initial=1.0)]
        decisions = {
            "a": [Move(0, 1), Serve(1, 0), Move(0, 1), IDLE, IDLE],
        }
        report = validate_schedule(decisions, cfg, devs)
        assert not report.checks["iv"].passed
        assert not report.checks["vii"].passed

    @pytest.mark.parametrize(
        "delay, row, failed",
        [
            (2, [Move(0, 1), IDLE, IDLE, IDLE, IDLE], {"vi": 1}),
            (2, [Move(0, 1), Move(1, 0), IDLE, IDLE, IDLE], {"v": 1, "vi": 1}),
            (3, [IDLE, IDLE, IDLE, Move(0, 1), Move(0, 1)], {"vi": 4}),
            (
                2,
                [Move(0, 1), Serve(1, 0), Serve(1, 1), IDLE, IDLE],
                {"i": 1, "iv": 1, "vi": 1, "vii": 1},
            ),
            (2, [Move(0, 1), Move(0, 1), Serve(1, 1), IDLE, IDLE], {}),
            # no such edge: recorded under v, and no transit starts
            (2, [IDLE, Move(0, 5), IDLE, IDLE, IDLE], {"v": 1}),
            (2, [IDLE, Move(7, 1), IDLE, IDLE, IDLE], {"v": 1}),
            (2, [IDLE, Move(0, 0), IDLE, IDLE, IDLE], {"v": 1}),
        ],
        ids=[
            "dropped",
            "turned-back",
            "past-horizon",
            "served-in-transit",
            "landed",
            "to-unknown",
            "from-unknown",
            "to-itself",
        ],
    )
    def test_transit_witnesses(self, delay, row, failed):
        # the slot of each failed constraint's earliest witness
        cfg = make_cfg(num_aggregators=2, horizon=5, delay=delay)
        devs = [make_request("a", [2], 2.0, 4, mobile=True, initial=1.0)]
        report = validate_schedule({"a": row}, cfg, devs)
        assert {c.name: c.witness[1] for c in report.failed()} == failed
        assert all(c.witness[0] == "a" for c in report.failed())

    def test_truncated_transit_fails_duration(self):
        cfg = make_cfg(num_aggregators=2, horizon=5, delay=3)
        devs = [make_request("a", [2], 2.0, 4, mobile=True, initial=1.0)]
        decisions = {"a": [Move(0, 1), Move(0, 1), IDLE, IDLE, IDLE]}
        report = validate_schedule(decisions, cfg, devs)
        assert not report.checks["vi"].passed

    def test_move_from_wrong_cluster_fails(self):
        cfg = make_cfg(num_aggregators=2, horizon=4)
        devs = [make_request("a", [2], 2.0, 4, mobile=True, initial=1.0, home=0)]
        decisions = {"a": [Move(1, 0), IDLE, IDLE, IDLE]}
        report = validate_schedule(decisions, cfg, devs)
        assert not report.checks["v"].passed

    def test_serve_at_wrong_aggregator_fails(self):
        cfg = make_cfg(num_aggregators=2, horizon=3)
        devs = [make_request("a", [2], 2.0, 3, home=0)]
        decisions = {"a": [Serve(1, 1), IDLE, IDLE]}
        report = validate_schedule(decisions, cfg, devs)
        assert not report.checks["i"].passed

    def test_serve_before_arrival_fails(self):
        cfg = make_cfg(horizon=4)
        devs = [make_request("a", [2], 1.0, 4, arrival=2)]
        decisions = {"a": [Serve(1, 0), IDLE, IDLE, IDLE]}
        report = validate_schedule(decisions, cfg, devs)
        assert not report.checks["ii"].passed
        assert report.checks["i"].passed

    @pytest.mark.parametrize(
        "arrival, row, failed",
        [
            # Idle cells, then a Serve or a Move before arrival
            (3, [IDLE, Serve(1, 0), IDLE, IDLE, IDLE], {"ii": 1}),
            (3, [IDLE, IDLE, Move(0, 1), IDLE, IDLE], {"ii": 2}),
            # a pre-arrival prefix of Idle instances other than the singleton
            (2, [Idle(), Idle(), Serve(1, 0), IDLE, IDLE], {}),
            (0, [Serve(1, 0), IDLE, IDLE, IDLE, IDLE], {}),
            # arrival at the horizon: no cell may act
            (5, [IDLE] * 5, {}),
            (5, [IDLE] * 4 + [Serve(1, 0)], {"ii": 4}),
            # arrival past the horizon is walked from slot 0
            (6, [IDLE, IDLE, Serve(1, 0), IDLE, IDLE], {"ii": 2}),
        ],
        ids=[
            "serve-early",
            "move-early",
            "idle-instances",
            "arrival-0",
            "arrival-tau-idle",
            "arrival-tau-serve",
            "arrival-past-tau",
        ],
    )
    def test_pre_arrival_prefix(self, arrival, row, failed):
        cfg = make_cfg(num_aggregators=2, budget=10.0, horizon=5)
        devs = [make_request("a", [2], 4.0, 5, arrival=arrival, mobile=True)]
        report = validate_schedule({"a": row}, cfg, devs)
        assert {c.name: c.witness for c in report.failed()} == {
            name: ("a", slot) for name, slot in failed.items()
        }

    def test_bad_mode_index_fails(self):
        cfg = make_cfg(horizon=2)
        devs = [make_request("a", [2], 1.0, 2)]
        decisions = {"a": [Serve(5, 0), IDLE]}
        report = validate_schedule(decisions, cfg, devs)
        assert not report.checks["i"].passed

    def test_overserving_fails_energy_bound(self):
        cfg = make_cfg(budget=10.0, horizon=4)
        devs = [make_request("a", [2], 1.0, 4)]
        decisions = {"a": [Serve(1, 0), Serve(1, 0), IDLE, IDLE]}
        report = validate_schedule(decisions, cfg, devs)
        assert not report.checks["viii"].passed

    def test_missing_device_row_is_structural(self):
        cfg = make_cfg()
        devs = [make_request("a", [2], 1.0, 2)]
        with pytest.raises(ScheduleFormatError):
            validate_schedule({}, cfg, devs)

    def test_short_row_is_structural(self):
        cfg = make_cfg(horizon=4)
        devs = [make_request("a", [2], 1.0, 2)]
        with pytest.raises(ScheduleFormatError):
            validate_schedule({"a": [IDLE]}, cfg, devs)

    def test_short_row_message_is_one_line(self):
        cfg = make_cfg(horizon=4)
        devs = [make_request("a\nb", [2], 1.0, 2)]
        with pytest.raises(ScheduleFormatError) as err:
            validate_schedule({"a\nb": [IDLE]}, cfg, devs)
        assert str(err.value) == "device a\\nb has 1 slots, expected 4"

    def test_corruptions_are_caught_with_witnesses(self):
        # every mutation that breaks a rule flips at least one constraint
        scenario = workload.micro_instances(1, seed=123, max_devices=3)[0]
        result = engine.run(scenario, "heuristic")
        cfg, devices = scenario.config, list(scenario.devices)
        base = result.decisions
        dev_id = sorted(base)[0]
        dev = scenario.device_map()[dev_id]

        corruptions = []
        over = Serve(dev.modes.count, 99)  # unknown aggregator
        corruptions.append((dev_id, 0, over, "i"))
        corruptions.append((dev_id, 0, Serve(dev.modes.count + 3, dev.home), "i"))
        if cfg.num_aggregators > 1:
            corruptions.append((dev_id, cfg.horizon_slots - 1, Move(dev.home, dev.home), "v"))

        for target_dev, slot, action, expected in corruptions:
            mutated = {k: list(v) for k, v in base.items()}
            mutated[target_dev][slot] = action
            report = validate_schedule(mutated, cfg, devices)
            assert not report.all_pass
            failing = report.failed()
            assert any(c.name == expected for c in failing), (
                expected,
                [c.name for c in failing],
            )
            assert all(c.witness is not None for c in failing)


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------


class TestSolveExact:
    def test_single_feasible_device_zero_loss(self):
        cfg = make_cfg(budget=2.0, horizon=4)
        scenario = Scenario("t1", cfg, (make_request("a", [2], 1.0, 2),))
        result = solve_exact(ExactInstance(scenario))
        assert result.loss == 0.0

    def test_contended_pair_sacrifices_lower_criticality(self):
        # both need two full-rate slots before slot 1; only one fits on time,
        # so the optimum parks the low-criticality device one slot late
        cfg = make_cfg(budget=2.0, horizon=4)
        scenario = Scenario(
            "t2",
            cfg,
            (
                make_request("a", [2], 2.0, 1, kappa=1.6),
                make_request("b", [2], 2.0, 1, kappa=2.0),
            ),
        )
        result = solve_exact(ExactInstance(scenario))
        want = 1.0 * math.exp(1.6)  # deficit 1 kWh, one slot late, kappa 1.6
        assert result.loss == pytest.approx(want, rel=1e-9)
        report = validate_schedule(result.decisions, cfg, list(scenario.devices))
        assert report.all_pass

    def test_matches_brute_force_on_small_instances(self):
        scenarios = workload.micro_instances(
            12, seed=5, max_devices=2, max_slots=4, max_aggregators=2
        )
        for scenario in scenarios:
            got = solve_exact(ExactInstance(scenario)).loss
            want = brute_force_optimum(scenario)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), scenario.scenario_id

    def test_mobility_in_optimum_when_it_pays(self):
        # home cluster too small to finish on time; the neighbor is free
        cfg = make_cfg(num_aggregators=2, budget=2.0, horizon=6, delay=1, cost=0.1)
        scenario = Scenario(
            "t3",
            cfg,
            (
                make_request("a", [2], 4.0, 4, home=0),
                make_request("b", [2], 4.0, 4, home=0, mobile=True, initial=1.0),
            ),
        )
        result = solve_exact(ExactInstance(scenario))
        assert result.loss == pytest.approx(2 * 0.1, rel=1e-9)
        moved = any(isinstance(a, Move) for a in result.decisions["b"])
        assert moved

    def test_multi_slot_transit_in_optimum(self):
        # a finishes on the 1 kW home budget; b moves over a 2-slot edge to
        # the 4 kW neighbour and finishes there at 3 kW
        cfg = SystemConfig(
            num_aggregators=2,
            budgets_kw=(1.0, 4.0),
            horizon_slots=5,
            slot_hours=0.5,
            movement=uniform_movement(2, 2, 0.05),
        )
        scenario = Scenario(
            "t5",
            cfg,
            (
                make_request("a", [1], 1.0, 2, home=0),
                make_request("b", [1, 3], 1.5, 2, home=0, mobile=True, initial=1.0),
            ),
        )
        result = solve_exact(ExactInstance(scenario))
        assert result.loss == pytest.approx(0.2, rel=1e-9)
        assert result.loss == pytest.approx(brute_force_optimum(scenario), rel=1e-9)
        row = result.decisions["b"]
        start = row.index(Move(0, 1))
        assert row[start + 1] == Move(0, 1)
        assert validate_schedule(result.decisions, cfg, list(scenario.devices)).all_pass
        assert result.nodes == 94

    def test_caps_refusal(self):
        # one instance just past each fixed guardrail; each is refused before
        # any search, so the message names the cap, not the node budget
        one = (make_request("a", [2], 1.0, 2),)
        past_caps = [
            Scenario(
                "devices",
                make_cfg(),
                tuple(make_request(f"d{i}", [2], 0.5, 2) for i in range(exact.MAX_DEVICES + 1)),
            ),
            Scenario("slots", make_cfg(horizon=exact.MAX_SLOTS + 1), one),
            Scenario("aggregators", make_cfg(num_aggregators=exact.MAX_AGGREGATORS + 1), one),
            Scenario(
                "modes",
                make_cfg(),
                (make_request("a", list(range(1, exact.MAX_MODES + 2)), 1.0, 2),),
            ),
        ]
        for scenario in past_caps:
            with pytest.raises(CapExceededError, match="> cap"):
                solve_exact(ExactInstance(scenario))

    def test_mode_cap_message_is_one_line(self):
        modes = list(range(1, exact.MAX_MODES + 2))
        scenario = Scenario("modes", make_cfg(), (make_request("a\nb", modes, 1.0, 2),))
        with pytest.raises(CapExceededError) as err:
            solve_exact(ExactInstance(scenario))
        assert str(err.value) == f"device a\\nb has {len(modes)} modes > cap {exact.MAX_MODES}"

    def test_node_budget_refusal(self):
        cfg = make_cfg(budget=2.0, horizon=6)
        scenario = Scenario(
            "t4",
            cfg,
            (
                make_request("a", [1, 2], 2.0, 3),
                make_request("b", [1, 2], 2.0, 3),
                make_request("c", [1, 2], 2.0, 3),
            ),
        )
        with pytest.raises(CapExceededError):
            solve_exact(ExactInstance(scenario, ExactCaps(node_budget=5)))

    def test_determinism(self):
        scenario = workload.micro_instances(1, seed=9)[0]
        a = solve_exact(ExactInstance(scenario))
        b = solve_exact(ExactInstance(scenario))
        assert a.loss == b.loss
        assert a.decisions == b.decisions


class TestOracleInequality:
    def test_exact_at_most_every_scheduler(self):
        scenarios = workload.micro_instances(25, seed=31)
        for scenario in scenarios:
            optimal = solve_exact(ExactInstance(scenario)).loss
            for scheduler in ("heuristic", "edf", "hp"):
                for mobility in (True, False):
                    loss = engine.run(scenario, scheduler, mobility=mobility).total_loss
                    assert optimal <= loss + 1e-9, (
                        scenario.scenario_id,
                        scheduler,
                        mobility,
                    )


def order_sensitive_scenario():
    """Two devices contend for six 1 kWh slots and one is 1 kWh short a
    slot late, at about 1e8; two 5e-9 kWh devices are never served and
    pay about 5e-9 in each of the last two slots, below half an ulp of
    1e8 each but not in pairs. So the id-order sum of row totals, the
    reverse order and the search's slot-order sum all differ."""
    kappa = math.log(1e8)
    devices = (
        make_request("a", [2], 3.0, 3, kappa=kappa),
        make_request("b", [2], 3.0, 3, kappa=kappa),
        make_request("c", [2], 5e-9, 3, kappa=0.01),
        make_request("d", [2], 5e-9, 3, kappa=0.01),
    )
    return Scenario("order", make_cfg(budget=2.0, horizon=6), devices)


class TestReplayAgreement:
    def test_optimum_equals_its_replay_exactly(self):
        # the solver and a replay both sum `row_loss` totals in id order
        scenarios = [*workload.micro_instances(25, seed=5), order_sensitive_scenario()]
        for scenario in scenarios:
            result = solve_exact(ExactInstance(scenario))
            assert result.loss == engine.replay_loss(scenario, result.decisions), (
                scenario.scenario_id
            )


class TestGapReport:
    def test_ratio_one_when_heuristic_optimal(self):
        cfg = make_cfg(budget=2.0, horizon=4)
        scenario = Scenario("g1", cfg, (make_request("a", [2], 1.0, 2),))
        report = exact.gap_report([ExactInstance(scenario)])
        assert report.rows[0].ratio == 1.0

    def test_empty_instances(self):
        report = exact.gap_report([])
        assert report.rows == ()
        assert math.isnan(report.median_ratio)

    def test_statistics_present(self):
        scenarios = workload.micro_instances(6, seed=2)
        report = exact.gap_report([ExactInstance(s) for s in scenarios])
        assert len(report.rows) == 6
        assert report.median_ratio >= 1.0 - 1e-9
        assert report.max_ratio >= report.median_ratio
