"""Two-pass serving, the published spare capacity, mobility choice, and horizon runs."""

import pytest

from gridflex import engine, heuristic, workload
from gridflex.baselines import edf_rank, hp_rank
from gridflex.heuristic import (
    heuristic_rank,
    mobility_decision,
    run_horizon,
    schedule_slot,
)
from gridflex.model import (
    EPS,
    DeviceRequest,
    DeviceState,
    IDLE,
    Idle,
    Move,
    PowerModeSet,
    Scenario,
    Serve,
    SystemConfig,
    encode_action,
    line_movement,
)
from loss_oracle import oracle_mismatches


def make_request(dev_id, modes, demand=50.0, deadline=10, arrival=0, kappa=1.6,
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


def make_state(request, progress=0.0):
    st = DeviceState(request=request, aggregator=request.home)
    st.progress_kwh = progress
    return st


def make_cfg(num_aggregators=1, budget=500.0, horizon=20, cost=0.15):
    return SystemConfig(
        num_aggregators=num_aggregators,
        budgets_kw=tuple([budget] * num_aggregators),
        horizon_slots=horizon,
        slot_hours=0.5,
        movement=line_movement(num_aggregators, cost),
    )


class TestScheduleSlot:
    def test_two_pass_assignment_with_upgrade(self):
        # A (modes 1,3, higher priority) and B (modes 2) under a 5 kW budget:
        # first pass A->1, B->2; upgrade pass lifts A to 3
        a = make_state(make_request("a", [1, 3], demand=40.0, deadline=2))
        b = make_state(make_request("b", [2], demand=40.0, deadline=9))
        assigned, committed = schedule_slot([a, b], 0, 5.0, slot=1, slot_hours=0.5)
        assert assigned["a"] == Serve(2, 0)  # mode index 2 -> 3 kW
        assert assigned["b"] == Serve(1, 0)  # mode index 1 -> 2 kW
        assert committed == pytest.approx(5.0)

    def test_changes_no_argument(self):
        # the answer and the load are the whole result: the cluster list
        # and every state in it are as they were
        a = make_state(make_request("a", [1, 3], demand=40.0, deadline=2), progress=1.0)
        b = make_state(make_request("b", [2], demand=40.0, deadline=9))
        cluster = [b, a]
        before = [(st.aggregator, st.progress_kwh, st.extra_demand_kwh, st.target_kwh)
                  for st in cluster]
        schedule_slot(cluster, 1, 5.0, slot=1, slot_hours=0.5)
        assert cluster == [b, a]
        assert [(st.aggregator, st.progress_kwh, st.extra_demand_kwh, st.target_kwh)
                for st in cluster] == before

    def test_empty_cluster(self):
        assert schedule_slot([], 0, 5.0, slot=0, slot_hours=0.5) == ({}, 0.0)

    def test_serves_at_the_given_aggregator(self):
        dev = make_state(make_request("a", [2], demand=10.0, home=3))
        assert schedule_slot([dev], 3, 5.0, slot=0, slot_hours=0.5) == ({"a": Serve(1, 3)}, 2.0)

    def test_upgrades_stop_at_top_mode(self):
        dev = make_state(make_request("a", [1, 2, 3, 5], demand=100.0))
        assigned, committed = schedule_slot([dev], 0, 500.0, slot=0, slot_hours=0.5)
        assert assigned["a"] == Serve(4, 0)  # 5 kW
        assert committed == pytest.approx(5.0)

    def test_upgrades_stop_when_deficit_small(self):
        # deficit 1.6 kWh: 3 kW delivers 1.5 (fits), 5 kW delivers 2.5 (overshoots)
        dev = make_state(make_request("a", [1, 2, 3, 5], demand=100.0), progress=98.4)
        assigned, _ = schedule_slot([dev], 0, 500.0, slot=0, slot_hours=0.5)
        assert assigned["a"] == Serve(3, 0)

    def test_lowest_mode_may_overshoot_small_deficit(self):
        dev = make_state(make_request("a", [2], demand=100.0), progress=99.9)
        assigned, _ = schedule_slot([dev], 0, 500.0, slot=0, slot_hours=0.5)
        assert assigned["a"] == Serve(1, 0)

    def test_completed_devices_never_occupy_budget(self):
        done = make_state(make_request("a", [2], demand=10.0), progress=10.0)
        hungry = make_state(make_request("b", [2], demand=10.0))
        assigned, _ = schedule_slot([done, hungry], 0, 2.0, slot=0, slot_hours=0.5)
        assert "a" not in assigned
        assert assigned["b"] == Serve(1, 0)

    def test_no_fit_means_idle(self):
        dev = make_state(make_request("a", [2], demand=10.0))
        assert schedule_slot([dev], 0, 1.5, slot=0, slot_hours=0.5) == ({}, 0.0)

    def test_first_pass_reaches_small_mode_past_a_misfit(self):
        # 5 kW: a takes 4, b's 3 kW lowest mode no longer fits, c's 1 kW does;
        # the first pass stops only below the cluster's smallest lowest mode
        devs = [
            make_state(make_request("a", [4], demand=40.0, deadline=1)),
            make_state(make_request("b", [3], demand=40.0, deadline=2)),
            make_state(make_request("c", [1], demand=40.0, deadline=3)),
        ]
        assigned, committed = schedule_slot(devs, 0, 5.0, 0, 0.5)
        assert assigned == {"a": Serve(1, 0), "c": Serve(1, 0)}
        assert committed == pytest.approx(5.0)

    def test_failed_upgrade_step_leaves_the_sweeps(self):
        # 4 kW: first pass a->1, b->1 (2 kW left); a's 4 kW step never fits,
        # so b alone takes the remaining two 1 kW steps
        devs = [
            make_state(make_request("a", [1, 5], demand=40.0, deadline=1)),
            make_state(make_request("b", [1, 2, 3], demand=40.0, deadline=2)),
        ]
        assigned, committed = schedule_slot(devs, 0, 4.0, 0, 0.5)
        assert assigned == {"a": Serve(1, 0), "b": Serve(3, 0)}
        assert committed == pytest.approx(4.0)

    def test_round_robin_respects_budget(self):
        devs = [
            make_state(make_request("a", [1, 3, 5], demand=60.0, deadline=2)),
            make_state(make_request("b", [1, 3, 5], demand=60.0, deadline=3)),
        ]
        assigned, _ = schedule_slot(devs, 0, 7.0, 0, 0.5)
        total = sum(
            devs[0].request.modes.power(a.mode_index) for a in assigned.values()
        )
        assert total <= 7.0 + 1e-9

    def test_round_robin_spreads_residual_across_priorities(self):
        # 6 kW over two eager devices: 3+3, not 5+1 to the more urgent one
        devs = [
            make_state(make_request("a", [1, 3, 5], demand=60.0, deadline=2)),
            make_state(make_request("b", [1, 3, 5], demand=60.0, deadline=3)),
        ]
        rr, _ = schedule_slot(devs, 0, 6.0, 0, 0.5)
        assert rr["a"] == Serve(2, 0) and rr["b"] == Serve(2, 0)


def late_mover():
    """A mobile device six slots past its deadline at slot 8: staying
    costs far more than any affordable move."""
    return make_state(
        make_request("a", [2], demand=1000.0, deadline=2, mobile=True, initial=5.0)
    )


class TestPublishStatus:
    """Devices read the spare capacity each aggregator published after the
    slot's scheduling, one plain list indexed by aggregator."""

    def test_exhausted_budgets_have_zero_residual(self):
        cfg = make_cfg(num_aggregators=2)
        spare = [0.0, 0.0]  # budgets 4 kW, 4 kW committed
        assert mobility_decision(late_mover(), spare, cfg.movement, 8, 20, cfg.beta_max) is None

    def test_residual_subtraction(self):
        # a fixed device draws `load` of aggregator 1's 500 kW every slot:
        # 500 - 80 leaves exactly the late mover's 420 kW lowest mode, so it
        # moves there in slot 3; 500 - 81 falls 1 kW short and it never does
        cfg = SystemConfig(2, (1.0, 500.0), 20, 0.5, line_movement(2, 0.15))

        def run(load):
            devs = [
                make_request("a", [420], demand=1000.0, deadline=2, mobile=True, initial=5.0),
                make_request("z", [load], demand=10_000.0, deadline=20, home=1),
            ]
            result = run_horizon(cfg, devs)
            assert result.committed_kw[3] == [0.0, load]
            return rows_of(result)["a"]

        assert run(80.0)[:5] == ["I", "I", "I", "M:0:1", "S:1:1"]
        assert run(81.0) == ["I"] * 20

    def test_one_entry_per_aggregator(self):
        # only the farthest of five aggregators has room: every one is considered
        cfg = make_cfg(num_aggregators=5)
        spare = [0.0] * 4 + [500.0]
        move = mobility_decision(late_mover(), spare, cfg.movement, 8, 20, cfg.beta_max)
        assert move == Move(0, 4)


def open_aggregators(count):
    return [500.0] * count


class TestMobilityDecision:
    def test_non_mobile_never_moves(self):
        cfg = make_cfg(num_aggregators=2)
        dev = make_state(make_request("a", [2], mobile=False, initial=5.0))
        aggs = open_aggregators(2)
        assert mobility_decision(dev, aggs, cfg.movement, 8, 20, cfg.beta_max) is None

    def test_late_needy_device_moves_to_cheapest_viable(self):
        cfg = make_cfg(num_aggregators=3)
        dev = make_state(
            make_request("a", [2], demand=10.0, deadline=6, mobile=True, initial=5.0),
            progress=4.0,
        )
        move = mobility_decision(dev, open_aggregators(3), cfg.movement, 8, 20, cfg.beta_max)
        assert move == Move(0, 1)  # nearest cluster is cheapest

    def test_no_residual_anywhere_means_stay(self):
        cfg = make_cfg(num_aggregators=2)
        dev = make_state(
            make_request("a", [2], demand=10.0, deadline=2, mobile=True, initial=5.0)
        )
        assert mobility_decision(dev, [0.0, 0.0], cfg.movement, 8, 20, cfg.beta_max) is None

    def test_unaffordable_move_means_stay(self):
        cfg = make_cfg(num_aggregators=2, cost=10.0)
        dev = make_state(
            make_request("a", [2], demand=10.0, deadline=2, mobile=True, initial=0.5)
        )
        aggs = open_aggregators(2)
        assert mobility_decision(dev, aggs, cfg.movement, 8, 20, cfg.beta_max) is None

    def test_on_time_device_stays(self):
        cfg = make_cfg(num_aggregators=2)
        dev = make_state(
            make_request("a", [2], demand=10.0, deadline=15, mobile=True, initial=5.0)
        )
        aggs = open_aggregators(2)
        assert mobility_decision(dev, aggs, cfg.movement, 3, 20, cfg.beta_max) is None

    @pytest.mark.parametrize("slot", [0, 5, 6])
    def test_stays_at_and_before_deadline_despite_room(self, slot):
        # an empty one-hop aggregator and ample on-board energy, but staying
        # costs nothing until the deadline has passed
        cfg = make_cfg(num_aggregators=2)
        dev = make_state(
            make_request("a", [2], demand=10.0, deadline=6, mobile=True, initial=50.0)
        )
        aggs = open_aggregators(2)
        assert mobility_decision(dev, aggs, cfg.movement, slot, 20, cfg.beta_max) is None

    def test_moves_one_slot_past_deadline(self):
        cfg = make_cfg(num_aggregators=2)
        dev = make_state(
            make_request("a", [2], demand=10.0, deadline=6, mobile=True, initial=50.0)
        )
        aggs = open_aggregators(2)
        assert mobility_decision(dev, aggs, cfg.movement, 7, 20, cfg.beta_max) == Move(0, 1)

    def test_transit_must_fit_horizon(self):
        cfg = make_cfg(num_aggregators=2)
        dev = make_state(
            make_request("a", [2], demand=10.0, deadline=2, mobile=True, initial=5.0)
        )
        aggs = open_aggregators(2)
        assert mobility_decision(dev, aggs, cfg.movement, 19, 20, cfg.beta_max) is None


class TestRunHorizon:
    def test_no_devices_zero_loss(self):
        cfg = make_cfg()
        result = run_horizon(cfg, [])
        assert result.total_loss == 0.0

    def test_single_feasible_device_completes_on_time(self):
        cfg = make_cfg()
        dev = make_request("a", [1, 2], demand=3.0, deadline=6)
        result = run_horizon(cfg, [dev])
        state = result.states["a"]
        assert result.total_loss == 0.0
        assert state.progress_kwh == pytest.approx(3.0)
        assert state.completed
        done_by = max(
            t for t, action in enumerate(result.decisions["a"]) if isinstance(action, Serve)
        )
        assert done_by <= 6

    def test_zero_loss_certificate(self):
        # served fully by the deadline with no moves: whole-horizon loss is 0
        cfg = make_cfg(num_aggregators=2)
        devs = [
            make_request("a", [2, 3], demand=4.0, deadline=8, home=0),
            make_request("b", [2], demand=4.0, deadline=8, home=1, mobile=True, initial=1.0),
        ]
        result = run_horizon(cfg, devs)
        assert result.total_loss == 0.0
        for row in result.decisions.values():
            assert not any(isinstance(action, Move) for action in row)

    def test_congested_cluster_overflows_late_losses(self):
        cfg = make_cfg(num_aggregators=1, budget=2.0, horizon=8)
        devs = [
            make_request("a", [2], demand=4.0, deadline=4),
            make_request("b", [2], demand=4.0, deadline=4, kappa=2.0),
        ]
        result = run_horizon(cfg, devs)
        assert result.total_loss > 0.0

    def test_mobility_relieves_congestion(self):
        # two heavy devices on one aggregator, an idle neighbor one hop away
        cfg = make_cfg(num_aggregators=2, budget=2.0, horizon=12)
        devs = [
            make_request("a", [2], demand=6.0, deadline=6, home=0),
            make_request("b", [2], demand=6.0, deadline=6, home=0, mobile=True, initial=1.0),
        ]
        with_mob = run_horizon(cfg, devs, mobility_enabled=True)
        without = run_horizon(cfg, devs, mobility_enabled=False)
        assert with_mob.total_loss < without.total_loss
        moved = any(
            isinstance(a, Move) for a in with_mob.decisions["b"]
        )
        assert moved

    def test_transit_devices_never_serve(self):
        cfg = make_cfg(num_aggregators=2, budget=2.0, horizon=12)
        devs = [
            make_request("a", [2], demand=6.0, deadline=6, home=0),
            make_request("b", [2], demand=6.0, deadline=6, home=0, mobile=True, initial=1.0),
        ]
        result = run_horizon(cfg, devs)
        for row in result.decisions.values():
            in_transit = False
            remaining = 0
            for action in row:
                if isinstance(action, Move):
                    if not in_transit:
                        in_transit = True
                        remaining = cfg.movement[action.origin][action.target].delay_slots
                    remaining -= 1
                    assert remaining >= 0
                    if remaining == 0:
                        in_transit = False
                else:
                    assert not in_transit

    def test_mobility_ledger_counts_double_transit_cost(self):
        cfg = make_cfg(num_aggregators=2, budget=2.0, horizon=12, cost=0.15)
        devs = [
            make_request("a", [2], demand=6.0, deadline=6, home=0),
            make_request("b", [2], demand=6.0, deadline=6, home=0, mobile=True, initial=1.0),
        ]
        result = run_horizon(cfg, devs)
        mover = result.states["b"]
        n_move_slots = sum(
            1 for a in result.decisions["b"] if isinstance(a, Move)
        )
        assert n_move_slots > 0
        assert mover.mobility_loss_weighted == pytest.approx(2 * 0.15 * n_move_slots)
        assert mover.extra_demand_kwh == pytest.approx(0.15 * n_move_slots)

    def test_transit_start_grows_target_and_deficit(self, monkeypatch):
        # the state a landing device brings to its first schedule_slot call
        cfg = make_cfg(num_aggregators=2, budget=2.0, horizon=12, cost=0.15)
        devs = [
            make_request("a", [2], demand=6.0, deadline=6, home=0),
            make_request("b", [2], demand=6.0, deadline=6, home=0, mobile=True, initial=1.0),
        ]
        landed = []
        original = heuristic.schedule_slot

        def recording(cluster, *args):
            for st in cluster:
                # the stored target is demand plus extra on every call
                assert st.target_kwh == st.request.demand_kwh + st.extra_demand_kwh
                if st.request.id == "b" and st.extra_demand_kwh > 0.0 and not landed:
                    landed.append((st.extra_demand_kwh, st.target_kwh, st.progress_kwh))
            return original(cluster, *args)

        monkeypatch.setattr(heuristic, "schedule_slot", recording)
        result = run_horizon(cfg, devs)
        assert any(isinstance(a, Move) for a in result.decisions["b"])
        extra, target, progress = landed[0]
        assert extra == 0.15  # one one-slot hop
        assert target == 6.0 + 0.15
        # not met on landing: the deficit exceeds EPS
        assert target - progress > EPS
        assert result.states["b"].extra_demand_kwh == extra

    def test_online_causality(self):
        # devices arriving after slot t cannot influence decisions at slots <= t
        cfg = make_cfg(num_aggregators=2, budget=3.0, horizon=16)
        early = [
            make_request("a", [1, 2], demand=4.0, deadline=8, home=0),
            make_request("b", [2], demand=5.0, deadline=9, home=0, mobile=True, initial=1.0),
        ]
        late_v1 = make_request("z", [2], demand=3.0, deadline=16, arrival=10, home=0)
        late_v2 = make_request(
            "z", [1, 2], demand=2.0, deadline=14, arrival=10, home=1, kappa=2.0
        )
        r1 = run_horizon(cfg, early + [late_v1])
        r2 = run_horizon(cfg, early + [late_v2])
        for dev_id in ("a", "b"):
            assert r1.decisions[dev_id][:10] == r2.decisions[dev_id][:10]

    def test_progress_capped_at_target(self):
        cfg = make_cfg()
        dev = make_request("a", [50], demand=3.0, deadline=10)
        result = run_horizon(cfg, [dev])
        st = result.states["a"]
        assert st.progress_kwh == pytest.approx(3.0)


def stranded_mover():
    """Home budget 2 kW serves "a" but fits no mode of "b", so under any
    ranking "b" moves once late to aggregator 1 and shares it with "c"."""
    cfg = SystemConfig(2, (2.0, 10.0), 12, 0.5, line_movement(2, 0.15))
    devs = [
        make_request("a", [2], demand=6.0, deadline=6),
        make_request("b", [3], demand=3.0, deadline=2, mobile=True, initial=1.0),
        make_request("c", [1, 2, 4, 8], demand=20.0, deadline=12, home=1),
    ]
    return cfg, devs


def generated_100():
    scenario = workload.generate(workload.GenSpec(num_devices=100, seed=3))
    return scenario.config, scenario.devices


class TestCommittedLoad:
    """`committed_kw[t][j]`, the load `schedule_slot` returned, is what the
    decision rows draw from aggregator j in slot t."""

    @pytest.mark.parametrize("rank_fn", [heuristic_rank, edf_rank, hp_rank],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("make", [generated_100, stranded_mover],
                             ids=lambda f: f.__name__)
    def test_committed_matches_serve_powers(self, make, rank_fn):
        cfg, devs = make()
        result = run_horizon(cfg, devs, rank_fn)
        drawn = [[0.0] * cfg.num_aggregators for _ in range(cfg.horizon_slots)]
        for dev in devs:
            for t, action in enumerate(result.decisions[dev.id]):
                if isinstance(action, Serve):
                    drawn[t][action.aggregator] += dev.modes.power(action.mode_index)
        assert len(result.committed_kw) == cfg.horizon_slots
        for t in range(cfg.horizon_slots):
            assert len(result.committed_kw[t]) == cfg.num_aggregators
            for j in range(cfg.num_aggregators):
                assert result.committed_kw[t][j] == pytest.approx(drawn[t][j], rel=0, abs=1e-9)
        if make is stranded_mover:
            assert any(isinstance(a, Move) for a in result.decisions["b"])


def rows_of(result):
    return {dev_id: [encode_action(a) for a in row] for dev_id, row in result.decisions.items()}


def assert_replay_matches(cfg, devs, result):
    """Replay reproduces the total bit for bit, and every row's loss,
    progress, extra and completion match the independent oracle."""
    replayed = engine.replay_loss(Scenario("live-set", cfg, tuple(devs)), result.decisions)
    assert replayed == result.total_loss
    per_device = {
        dev_id: {
            "loss_total": loss.total,
            "deadline_loss": loss.deadline_loss,
            "mobility_loss_weighted": loss.mobility_loss_weighted,
            "stationary_penalty": loss.stationary_penalty,
            "progress_kwh": loss.progress_kwh,
            "extra_demand_kwh": loss.extra_demand_kwh,
            "completed": loss.completed,
        }
        for dev_id, loss in result.states.items()
    }
    assert oracle_mismatches(devs, cfg, result.decisions, per_device) == []


class TestLiveSet:
    """Boundaries of the horizon loop's clusters, the devices still live:
    who joins one, and when a device may leave it without changing any
    output."""

    def test_arrival_in_last_slot_is_scheduled(self):
        cfg = make_cfg(horizon=6)
        devs = [
            make_request("a", [2], demand=1.0, deadline=6, arrival=5),
            make_request("b", [2], demand=6.0, deadline=6),
        ]
        result = run_horizon(cfg, devs)
        assert rows_of(result) == {
            "a": ["I"] * 5 + ["S:1:0"],
            "b": ["S:1:0"] * 6,
        }
        assert result.total_loss == 0.0
        assert_replay_matches(cfg, devs, result)

    def test_transit_landing_slot_is_served_at_target(self):
        # home budget is below the device's only mode; once late it moves
        # one hop (slot 2) and is served at the target in the landing slot
        cfg = SystemConfig(2, (1.0, 2.0), 8, 0.5, line_movement(2, 0.15))
        devs = [make_request("b", [2], demand=1.0, deadline=1, mobile=True, initial=1.0)]
        result = run_horizon(cfg, devs)
        assert rows_of(result) == {
            "b": ["I", "I", "M:0:1", "S:1:1", "S:1:1", "I", "I", "I"],
        }
        moves = [a for a in result.decisions["b"] if isinstance(a, Move)]
        assert moves[-1].target == 1
        assert_replay_matches(cfg, devs, result)

    def test_two_slot_transit_lands_at_target(self, monkeypatch):
        # aggregator 1 has no room for "b"'s only mode, so once late it goes
        # two hops, 0 -> 2: both transit slots are Move cells, and it lands
        # in slot 4 in the cluster of "a" and "c", which sit at aggregator 2
        # throughout; the cluster's order is not state, so only its members count
        cfg = SystemConfig(3, (1.0, 1.0, 10.0), 8, 0.5, line_movement(3, 0.15))
        devs = [
            make_request("a", [2], demand=8.0, deadline=8, home=2),
            make_request("b", [2], demand=1.0, deadline=1, mobile=True, initial=1.0),
            make_request("c", [2], demand=8.0, deadline=8, home=2),
        ]
        members = record_cluster_members(monkeypatch)
        result = run_horizon(cfg, devs)
        assert rows_of(result) == {
            "a": ["S:1:2"] * 8,
            "b": ["I", "I", "M:0:2", "M:0:2", "S:1:2", "S:1:2", "I", "I"],
            "c": ["S:1:2"] * 8,
        }
        assert sorted(dev_id for dev_id, slot in members if slot == 4) == ["a", "b", "c"]
        moves = [a for a in result.decisions["b"] if isinstance(a, Move)]
        assert moves[-1].target == 2
        assert result.states["b"].extra_demand_kwh == cfg.movement[0][2].total_kwh
        assert_replay_matches(cfg, devs, result)

    def test_shortfall_within_eps_is_met(self, monkeypatch):
        # one slot delivers 1.0 kWh: the shortfall 5e-10 is within EPS, so the
        # demand is met; the device retires and its late slots cost nothing
        members = record_cluster_members(monkeypatch)
        cfg = make_cfg(horizon=6)
        devs = [make_request("a", [2], demand=1.0 + 5e-10, deadline=1)]
        result = run_horizon(cfg, devs)
        assert rows_of(result) == {"a": ["S:1:0"] + ["I"] * 5}
        assert members == [("a", 0)]
        st = result.states["a"]
        assert st.completed and st.progress_kwh == 1.0
        assert st.deadline_loss == 0.0
        assert result.total_loss == 0.0
        assert_replay_matches(cfg, devs, result)

    def test_demand_within_eps_is_met_on_arrival(self, monkeypatch):
        # a 5e-10 kWh request is met before any service: it is never served,
        # leaves its cluster in its arrival slot and costs nothing
        members = record_cluster_members(monkeypatch)
        cfg = make_cfg(horizon=50)
        devs = [make_request("a", [2], demand=5e-10, deadline=1, kappa=2.0)]
        result = engine.run(Scenario("tiny", cfg, tuple(devs)))
        assert rows_of(result) == {"a": ["I"] * 50}
        assert members == [("a", 0)]
        assert result.per_device["a"]["completed"] is True
        assert result.total_loss == 0.0
        assert oracle_mismatches(devs, cfg, result.decisions, result.per_device) == []

    def test_retired_device_stays_idle_to_horizon_end(self):
        # "a" finishes in slot 0 and retires; a mobile finisher and a later
        # arrival at the same cluster must not bring it back
        cfg = make_cfg(num_aggregators=2, budget=2.0, horizon=10)
        devs = [
            make_request("a", [2], demand=1.0, deadline=3),
            make_request("b", [2], demand=1.0, deadline=3, home=1, mobile=True, initial=5.0),
            make_request("c", [2], demand=3.0, deadline=10, arrival=4),
        ]
        result = run_horizon(cfg, devs)
        assert rows_of(result) == {
            "a": ["S:1:0"] + ["I"] * 9,
            "b": ["S:1:1"] + ["I"] * 9,
            "c": ["I"] * 4 + ["S:1:0"] * 3 + ["I"] * 3,
        }
        assert result.total_loss == 0.0
        assert_replay_matches(cfg, devs, result)


def record_cluster_members(monkeypatch):
    """Record (device id, slot) for every cluster member `schedule_slot` is given."""
    calls = []
    original = heuristic.schedule_slot

    def recording(cluster, aggregator, budget_kw, slot, *args):
        calls.extend((st.request.id, slot) for st in cluster)
        return original(cluster, aggregator, budget_kw, slot, *args)

    monkeypatch.setattr(heuristic, "schedule_slot", recording)
    return calls


def live_device_slots(cfg, devices, result):
    """Slots from arrival to retirement that a device spends at a cluster,
    derived from the outputs alone.

    A device that ends at a cluster, completed, retires in its last
    non-idle slot; any other device stays live to the end of the horizon.
    A transit's first slot is spent at the origin cluster; its later slots
    (the same Move repeated) at none.
    """
    total = 0
    for dev in devices:
        row = result.decisions[dev.id]
        if result.states[dev.id].completed and not isinstance(row[-1], Move):
            last = max(t for t, action in enumerate(row) if not isinstance(action, Idle))
        else:
            last = len(row) - 1
        mid_transit = sum(
            1
            for t in range(dev.arrival_slot + 1, last + 1)
            if isinstance(row[t], Move) and row[t] == row[t - 1]
        )
        total += last - dev.arrival_slot + 1 - mid_transit
    return total


def record_mobility_calls(monkeypatch):
    """Record (device id, slot, returned move) for every `mobility_decision` call."""
    calls = []
    original = heuristic.mobility_decision

    def recording(dev, residual_kw, matrix, slot, *args):
        move = original(dev, residual_kw, matrix, slot, *args)
        calls.append((dev.request.id, slot, move))
        return move

    monkeypatch.setattr(heuristic, "mobility_decision", recording)
    return calls


class TestMobilityOffers:
    """`run_horizon` offers `mobility_decision` only the devices it could
    move: staying costs the others nothing, so they would stay."""

    def test_only_late_mobile_devices_are_offered(self, monkeypatch):
        # the home budget fits no mode, so both devices idle there from slot 0;
        # aggregator 1 has room, and only "mob", once late, weighs going there
        calls = record_mobility_calls(monkeypatch)
        cfg = SystemConfig(2, (1.0, 10.0), 12, 0.5, line_movement(2, 0.15))
        devs = [
            make_request("fixed", [2], demand=6.0, deadline=3),
            make_request("mob", [2], demand=6.0, deadline=5, mobile=True, initial=1.0),
        ]
        result = run_horizon(cfg, devs)
        assert calls == [("mob", 6, Move(0, 1))]
        assert rows_of(result) == {
            "fixed": ["I"] * 12,
            "mob": ["I"] * 6 + ["M:0:1"] + ["S:1:1"] * 5,
        }
        assert_replay_matches(cfg, devs, result)

    def test_every_move_passes_through_the_decision(self, monkeypatch):
        # the engine test's migrating scenario: "b" still moves, and each of
        # its transit starts is a move `mobility_decision` returned
        calls = record_mobility_calls(monkeypatch)
        cfg = SystemConfig(2, (2.0, 2.0), 12, 0.5, line_movement(2, 0.15))
        devs = [
            DeviceRequest("a", 0, 6, False, 0.0, 6.0, 1.6, PowerModeSet((2.0,)), 0),
            DeviceRequest("b", 0, 6, True, 1.0, 6.0, 1.8, PowerModeSet((2.0,)), 0),
        ]
        result = run_horizon(cfg, devs)
        starts = [
            ("b", t, action)
            for t, action in enumerate(result.decisions["b"])
            if isinstance(action, Move) and (t == 0 or result.decisions["b"][t - 1] != action)
        ]
        assert starts
        assert [c for c in calls if c[2] is not None] == starts
        assert all(dev_id == "b" and t > 6 for dev_id, t, _ in calls)
        assert_replay_matches(cfg, devs, result)

    def test_offered_devices_were_unserved(self, monkeypatch):
        # each offer's slot holds the Idle fill, or the transit it started
        calls = record_mobility_calls(monkeypatch)
        scenario = workload.generate(workload.GenSpec(num_devices=100, seed=3))
        result = run_horizon(scenario.config, scenario.devices)
        assert any(move is not None for _, _, move in calls)
        assert any(move is None for _, _, move in calls)
        for dev_id, t, move in calls:
            cell = result.decisions[dev_id][t]
            assert cell is IDLE if move is None else cell == move
        assert_replay_matches(scenario.config, scenario.devices, result)


class TestWorkProportionalToLiveSet:
    def test_slot_loss_only_between_arrival_and_retirement(self, monkeypatch):
        calls = record_cluster_members(monkeypatch)
        cfg = make_cfg(horizon=10)
        devs = [
            make_request("a", [2], demand=1.0, deadline=2),
            make_request("b", [2], demand=2.0, deadline=6, arrival=2),
            make_request("c", [2], demand=1.0 + 5e-10, deadline=6, arrival=4),
            make_request("d", [2], demand=1.0, deadline=10, arrival=9),
        ]
        result = run_horizon(cfg, devs)
        # "c" is met within EPS by its one slot of service and retires there
        assert sorted(calls) == [("a", 0), ("b", 2), ("b", 3), ("c", 4), ("d", 9)]
        assert len(calls) == live_device_slots(cfg, devs, result)

    def test_generated_scenario_calls_match_live_device_slots(self, monkeypatch):
        calls = record_cluster_members(monkeypatch)
        scenario = workload.generate(
            workload.GenSpec(num_devices=100, class_combo=("L", "L", "M", "M", "H"), seed=3)
        )
        cfg, devs = scenario.config, scenario.devices
        result = run_horizon(cfg, devs)
        arrived_slots = sum(cfg.horizon_slots - d.arrival_slot for d in devs)
        assert len(calls) == live_device_slots(cfg, devs, result)
        assert len(calls) < arrived_slots


class TestBaselineRankings:
    def test_edf_orders_by_deadline(self):
        devs = [
            make_state(make_request("a", [1], deadline=5)),
            make_state(make_request("b", [1], deadline=3)),
            make_state(make_request("c", [1], deadline=9)),
        ]
        assert [d.request.id for d in edf_rank(devs, 0)] == ["b", "a", "c"]

    def test_edf_ties_by_id(self):
        devs = [
            make_state(make_request("b", [1], deadline=5)),
            make_state(make_request("a", [1], deadline=5)),
        ]
        assert [d.request.id for d in edf_rank(devs, 0)] == ["a", "b"]

    def test_hp_orders_by_remaining_demand(self):
        devs = [
            make_state(make_request("a", [1], demand=10.0)),
            make_state(make_request("b", [1], demand=50.0)),
            make_state(make_request("c", [1], demand=3.0)),
        ]
        assert [d.request.id for d in hp_rank(devs, 0)] == ["b", "a", "c"]

    def test_hp_uses_remaining_not_total(self):
        devs = [
            make_state(make_request("a", [1], demand=10.0), progress=9.0),
            make_state(make_request("b", [1], demand=5.0)),
        ]
        assert [d.request.id for d in hp_rank(devs, 0)] == ["b", "a"]

    def test_heuristic_rank_prefers_overdue_high_deficit(self):
        devs = [
            make_state(make_request("a", [1], demand=10.0, deadline=8)),
            make_state(make_request("b", [1], demand=10.0, deadline=2)),
        ]
        order = [d.request.id for d in heuristic_rank(devs, 4)]
        assert order == ["b", "a"]
