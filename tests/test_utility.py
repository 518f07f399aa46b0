"""Loss-model unit suite: closed-form values checked against mpmath."""

import math

import mpmath
import pytest
from hypothesis import assume, given, strategies as st

from gridflex.model import (
    DEFAULT_BETA_MAX,
    EPS,
    DeviceRequest,
    DeviceState,
    IDLE,
    Move,
    PowerModeSet,
    Serve,
    SystemConfig,
    line_movement,
)
from gridflex.utility import RowLoss, deadline_loss, row_loss, slot_loss

REL = 1e-9

mpmath.mp.dps = 50


def hp_deadline_loss(deficit, kappa, late):
    """Arbitrary-precision recomputation of the deadline term."""
    return float(mpmath.mpf(deficit) * mpmath.e ** (mpmath.mpf(kappa) * late))


def make_request(demand=10.0, deadline=6, kappa=1.6, mobile=True, initial=1.0, home=0):
    return DeviceRequest(
        id="u0",
        arrival_slot=0,
        deadline_slot=deadline,
        mobile=mobile,
        initial_energy_kwh=initial,
        demand_kwh=demand,
        criticality=kappa,
        modes=PowerModeSet((1.0, 2.0, 3.0)),
        home=home,
    )


def make_state(**kwargs):
    request = make_request(**kwargs)
    return DeviceState(request=request, aggregator=request.home)


def make_cfg(num_aggregators=3, cost=0.15):
    return SystemConfig(
        num_aggregators=num_aggregators,
        budgets_kw=tuple([500.0] * num_aggregators),
        horizon_slots=20,
        slot_hours=0.5,
        movement=line_movement(num_aggregators, cost),
    )


class TestDeadlineLoss:
    def test_zero_before_and_at_deadline(self):
        assert deadline_loss(0.0, 10.0, 5, 6, 1.6) == 0.0
        assert deadline_loss(0.0, 10.0, 6, 6, 1.6) == 0.0

    def test_zero_when_fully_served(self):
        assert deadline_loss(10.0, 10.0, 9, 6, 1.6) == 0.0

    def test_deficit_within_eps_is_met(self):
        # the one threshold for met, as `RowLoss.completed` reads it
        assert deadline_loss(0.0, EPS, 9, 6, 1.6) == 0.0
        assert deadline_loss(0.0, 2 * EPS, 9, 6, 1.6) > 0.0

    def test_closed_form_two_slots_late(self):
        # deficit 6, criticality 1.6, two slots late: 6 * e^3.2
        got = deadline_loss(4.0, 10.0, 8, 6, 1.6)
        want = hp_deadline_loss(6.0, 1.6, 2)
        assert got == pytest.approx(want, rel=REL)
        assert got == pytest.approx(147.19518, abs=1e-4)

    def test_clamped_at_beta_max(self):
        assert deadline_loss(0.0, 10.0, 500, 6, 2.0) == DEFAULT_BETA_MAX
        assert deadline_loss(0.0, 10.0, 9, 6, 2.0, beta_max=5.0) == 5.0

    @given(
        deficit=st.floats(0.01, 100.0),
        kappa=st.floats(0.1, 3.0),
        late=st.integers(1, 20),
    )
    def test_matches_high_precision(self, deficit, kappa, late):
        got = deadline_loss(0.0, deficit, 10 + late, 10, kappa)
        want = min(hp_deadline_loss(deficit, kappa, late), DEFAULT_BETA_MAX)
        assert got == pytest.approx(want, rel=REL)

    @given(
        deficit=st.floats(0.01, 10.0),
        kappa=st.floats(0.5, 2.0),
        late=st.integers(1, 10),
    )
    def test_monotone_in_lateness(self, deficit, kappa, late):
        # strict growth holds below the beta_max saturation point
        assume(deficit * math.exp(kappa * (late + 1)) < DEFAULT_BETA_MAX)
        a = deadline_loss(0.0, deficit, 10 + late, 10, kappa)
        b = deadline_loss(0.0, deficit, 10 + late + 1, 10, kappa)
        assert b > a

    @given(
        deficit=st.floats(0.01, 10.0),
        extra=st.floats(0.01, 10.0),
        kappa=st.floats(0.5, 2.0),
    )
    def test_monotone_in_deficit(self, deficit, extra, kappa):
        a = deadline_loss(0.0, deficit, 12, 10, kappa)
        b = deadline_loss(0.0, deficit + extra, 12, 10, kappa)
        assert b > a

    @given(
        kappa=st.floats(0.5, 1.9),
        bump=st.floats(0.01, 1.0),
    )
    def test_monotone_in_criticality(self, kappa, bump):
        a = deadline_loss(0.0, 5.0, 12, 10, kappa)
        b = deadline_loss(0.0, 5.0, 12, 10, kappa + bump)
        assert b > a


# demand 10, deadline 6, kappa 1.6: 6 kWh short two slots late
_LATE_D = deadline_loss(4.0, 10.0, 8, 6, 1.6)


class TestSlotLoss:
    def test_served_on_time_no_move_is_free(self):
        cfg = make_cfg()
        assert slot_loss(make_request(), 2.0, Serve(1, 0), 3, cfg) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "num_aggregators, mobile, action, want",
        [
            (3, True, IDLE, (_LATE_D, 0.0, 0.0)),
            (3, True, Serve(1, 0), (_LATE_D, 0.0, 0.0)),
            (2, True, Move(0, 1), (_LATE_D, 0.3, 0.0)),
            (3, True, Move(0, 2), (_LATE_D, 0.3, 0.0)),
            (3, True, Move(1, 2), (_LATE_D, 0.3, 0.0)),
            (3, False, Move(2, 2), (_LATE_D, 0.0, 0.0)),
            (3, False, Move(0, 1), (_LATE_D, 0.3, DEFAULT_BETA_MAX)),
        ],
        ids=[
            "late-idle",
            "late-serve",
            "one-slot-edge",
            "two-slot-edge",
            "mobile-move",
            "non-mobile-same-cluster",
            "non-mobile-move",
        ],
    )
    def test_weighted_terms(self, num_aggregators, mobile, action, want):
        # two slots late; a Move's movement term is 2x the line edge's
        # 0.15 kWh per slot, whatever the edge's delay
        cfg = make_cfg(num_aggregators)
        request = make_request(demand=10.0, deadline=6, kappa=1.6, mobile=mobile)
        assert slot_loss(request, 4.0, action, 8, cfg) == want

    def test_moving_late_device_compounds_terms(self):
        # deficit 6, kappa 1.6, 2 slots late, plus one transit slot at 0.15
        cfg = make_cfg()
        request = make_request(demand=10.0, deadline=6, kappa=1.6)
        d, m, p = slot_loss(request, 4.0, Move(0, 1), 8, cfg)
        want = hp_deadline_loss(6.0, 1.6, 2) + 2 * 0.15
        assert d + m + p == pytest.approx(want, rel=REL)

    def test_stationary_move_dominates(self):
        cfg = make_cfg()
        d, m, p = slot_loss(make_request(mobile=False), 0.0, Move(0, 1), 2, cfg)
        assert p == cfg.beta_max
        assert d + m + p >= cfg.beta_max


def slot_by_slot(request, row, cfg):
    """Reference for `row_loss`: every slot of the row through `slot_loss`,
    summed in slot order, with the engine's progress update; the final
    progress and extra, and met as the horizon loop tests it."""
    progress = extra = 0.0
    total = d_sum = m_sum = p_sum = 0.0
    for slot, action in enumerate(row):
        if isinstance(action, Serve):
            delivered = request.modes.power(action.mode_index) * cfg.slot_hours
            progress += min(delivered, max(request.demand_kwh + extra - progress, 0.0))
        elif isinstance(action, Move) and (slot == 0 or row[slot - 1] != action):
            extra += cfg.movement[action.origin][action.target].total_kwh
        d, m, p = slot_loss(request, progress, action, slot, cfg)
        total += d + m + p
        d_sum += d
        m_sum += m
        p_sum += p
    target = request.demand_kwh + extra
    return RowLoss(total, d_sum, m_sum, p_sum, progress, extra, target - progress <= EPS)


# demand is met at slot 8 (7 slots of 1.5 kWh, capped at 10 kWh); what follows
_MET = [IDLE] * 2 + [Serve(3, 0)] * 7
# 10 slots of 1.0 kWh fall 1e-10 kWh short of this demand, inside EPS: met
_SHORT_DEMAND = 10.0 + 1e-10
_SHORT = [Serve(2, 0)] * 10 + [IDLE] * 10


class TestRowLoss:
    """`row_loss` skips the slots that cannot cost, adds a late non-Move
    slot's deadline term directly and stops at an Idle tail after the
    demand is met; the sums must keep every bit."""

    @pytest.mark.parametrize(
        "mobile, kappa, demand, row",
        [
            # late Idle slots, then late Serve slots, then late Idle again
            (True, 1.6, 10.0, [Serve(1, 0)] * 3 + [IDLE] * 5 + [Serve(3, 0)] * 4 + [IDLE] * 8),
            # a two-slot Move (0 -> 2 on the line) that starts late, then service
            (True, 1.6, 10.0, [IDLE] * 8 + [Move(0, 2)] * 2 + [Serve(2, 2)] * 6 + [IDLE] * 4),
            # a non-mobile Move pays the stationary penalty in its one slot
            (False, 1.8, 10.0, [Serve(1, 0)] * 2 + [IDLE] * 5 + [Move(0, 1)] + [Serve(1, 1)] * 12),
            # every late deadline term at the beta_max clamp
            (True, 1000.0, 10.0, [Serve(3, 0)] * 2 + [IDLE] * 6 + [Move(0, 1)] + [IDLE] * 11),
            # demand met, then Idle to the end of the row
            (True, 1.6, 10.0, _MET + [IDLE] * 11),
            # demand met, then a later Serve (it delivers nothing), then Idle
            (True, 1.6, 10.0, _MET + [IDLE] * 3 + [Serve(1, 0)] * 2 + [IDLE] * 6),
            # demand met, then a later Move, whose cost is still charged
            (True, 1.6, 10.0, _MET + [IDLE] * 3 + [Move(0, 1)] + [IDLE] * 7),
            # progress ends within EPS of demand: met, so the late Idle tail is free
            (True, 1.6, _SHORT_DEMAND, _SHORT),
        ],
        ids=[
            "late-idle-and-serve",
            "two-slot-move",
            "stationary-move",
            "clamped",
            "met-then-idle",
            "met-then-serve",
            "met-then-move",
            "short-of-demand",
        ],
    )
    def test_equals_slot_by_slot_sum(self, mobile, kappa, demand, row):
        cfg = make_cfg()
        request = make_request(demand=demand, deadline=6, kappa=kappa, mobile=mobile)
        want = slot_by_slot(request, row, cfg)
        assert want.deadline_loss > 0.0
        assert row_loss(request, row, cfg) == want

    def test_completed_reads_the_deficit_against_demand_plus_extra(self):
        # a one-slot hop 0 -> 1 commits 0.15 kWh of extra; 4 slots of
        # 1.5 kWh then meet the 6 kWh demand but not demand plus extra
        cfg = make_cfg()
        request = make_request(demand=6.0)
        short = [Move(0, 1)] + [Serve(3, 1)] * 4 + [IDLE] * 15
        got = row_loss(request, short, cfg)
        assert got.extra_demand_kwh == 0.15
        assert got.progress_kwh == 6.0
        assert not got.completed
        # one more slot delivers the extra, capped at demand plus extra
        served = [Move(0, 1)] + [Serve(3, 1)] * 5 + [IDLE] * 14
        got = row_loss(request, served, cfg)
        assert got.progress_kwh == 6.0 + 0.15
        assert got.completed


class TestDeviceStateLedger:
    def test_target_set_at_construction(self):
        request = make_state(initial=1.0).request
        state = DeviceState(request=request, aggregator=0, extra_demand_kwh=0.3)
        assert state.target_kwh == request.demand_kwh + 0.3


    def test_available_energy_tracks_moves(self):
        state = make_state(initial=1.0)
        state.progress_kwh = 2.0
        state.extra_demand_kwh = 0.3
        assert state.available_energy_kwh == pytest.approx(2.7)
