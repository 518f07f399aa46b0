"""Per-slot distributed scheduling: priority serving, status exchange,
and device-side mobility decisions.

Every slot runs three phases. Each aggregator independently ranks its
cluster and serves devices in two passes (lowest feasible non-zero mode
first, then stepwise upgrades while budget remains). Aggregators then
publish their residual capacity, and unserved mobile devices weigh the
movement cost against the deadline loss of staying put. Decisions at
slot t never look at arrivals after t.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

from . import priority as priority_mod
from . import utility
from .model import (
    EPS,
    Action,
    AggregatorState,
    AtCluster,
    DeviceRequest,
    DeviceState,
    IDLE,
    Idle,
    InTransit,
    Move,
    MovementMatrix,
    Scenario,
    Serve,
    SlotDecision,
    SystemConfig,
)

# Ranking functions take the schedulable cluster members and the current
# slot, and return them in service order.
RankFn = Callable[[Sequence[DeviceState], int], list[DeviceState]]

UPGRADE_ROUND_ROBIN = "round-robin"
UPGRADE_GREEDY = "greedy"

_BY_ID = attrgetter("request.id")


@dataclass(frozen=True)
class AggregatorStatus:
    """One aggregator's published load snapshot for the current slot."""

    aggregator: int
    residual_kw: float
    committed_kw: float


StatusList = list[AggregatorStatus]


@dataclass(frozen=True)
class SlotSchedule:
    slot: int
    decisions: tuple[SlotDecision, ...]


def heuristic_rank(cluster: Sequence[DeviceState], slot: int) -> list[DeviceState]:
    """Order a cluster by the urgency score, with the documented tie-breaks."""
    by_id = {d.request.id: d for d in cluster}
    entries = [
        priority_mod.PriorityEntry(
            device_id=d.request.id,
            value=priority_mod.priority(d.progress_kwh, d.target_kwh, slot, d.request.deadline_slot),
            criticality=d.request.criticality,
            min_mode_kw=d.request.modes.min_kw,
        )
        for d in cluster
    ]
    return [by_id[e.device_id] for e in priority_mod.rank(entries)]


def _mode_fits_deficit(power_kw: float, deficit_kwh: float, slot_hours: float, lowest: bool) -> bool:
    # the lowest non-zero mode may overshoot by up to one slot's delivery;
    # higher modes must fit inside the remaining deficit
    if deficit_kwh <= EPS:
        return False
    if lowest:
        return True
    return power_kw * slot_hours <= deficit_kwh + EPS


def schedule_slot(
    agg: AggregatorState,
    cluster: Sequence[DeviceState],
    slot: int,
    slot_hours: float,
    rank_fn: RankFn = heuristic_rank,
    upgrade_policy: str = UPGRADE_ROUND_ROBIN,
) -> dict[str, Serve]:
    """Assign power modes to one aggregator's cluster for one slot.

    First pass hands each ranked device its lowest non-zero mode while
    the budget holds; devices that fit nothing idle. The second pass
    walks the same order upgrading one mode step at a time (round-robin
    until a full sweep fits nothing, or greedily to the top if
    configured). Never exceeds the budget and never overshoots a
    device's outstanding demand beyond one slot's granularity.
    """
    serving = [d for d in cluster if not d.completed]
    ranked = rank_fn(serving, slot)

    residual = agg.budget_kw
    assignment: dict[str, int] = {}

    for dev in ranked:
        modes = dev.request.modes
        lowest = modes.min_kw
        if lowest <= residual + EPS and _mode_fits_deficit(
            lowest, dev.deficit_kwh, slot_hours, lowest=True
        ):
            assignment[dev.request.id] = 1
            residual -= lowest

    served = [d for d in ranked if d.request.id in assignment]
    if upgrade_policy == UPGRADE_GREEDY:
        for dev in served:
            residual = _upgrade_to_limit(dev, assignment, residual, slot_hours)
    else:
        changed = True
        while changed and residual > EPS:
            changed = False
            for dev in served:
                new_residual = _upgrade_one_step(dev, assignment, residual, slot_hours)
                if new_residual is not None:
                    residual = new_residual
                    changed = True

    agg.committed_kw = agg.budget_kw - residual
    return {
        dev_id: Serve(mode_index, agg.index) for dev_id, mode_index in assignment.items()
    }


def _upgrade_one_step(
    dev: DeviceState, assignment: dict[str, int], residual: float, slot_hours: float
) -> float | None:
    """Try one mode-step upgrade; return the new residual or None if it fits nothing."""
    modes = dev.request.modes
    current = assignment[dev.request.id]
    if current >= modes.count:
        return None
    step = modes.power(current + 1) - modes.power(current)
    if step > residual + EPS:
        return None
    if not _mode_fits_deficit(modes.power(current + 1), dev.deficit_kwh, slot_hours, lowest=False):
        return None
    assignment[dev.request.id] = current + 1
    return residual - step


def _upgrade_to_limit(
    dev: DeviceState, assignment: dict[str, int], residual: float, slot_hours: float
) -> float:
    while True:
        new_residual = _upgrade_one_step(dev, assignment, residual, slot_hours)
        if new_residual is None:
            return residual
        residual = new_residual


def publish_status(aggregators: Sequence[AggregatorState], slot: int) -> StatusList:
    """Snapshot of every aggregator's residual capacity after scheduling."""
    return [
        AggregatorStatus(
            aggregator=a.index,
            residual_kw=a.residual_kw,
            committed_kw=a.committed_kw,
        )
        for a in aggregators
    ]


def mobility_decision(
    dev: DeviceState,
    status: StatusList,
    matrix: MovementMatrix,
    slot: int,
    horizon_slots: int,
    beta_max: float,
) -> Move | None:
    """Device-side choice to migrate after going unserved this slot.

    Candidates are aggregators advertising residual capacity the device
    could actually draw on (at least its lowest mode) whose transit
    completes within the horizon. Among the affordable ones (total
    movement cost within on-board energy) the cheapest wins, and the
    move happens only when the deadline loss of staying exceeds the
    movement cost.
    """
    if not dev.request.mobile:
        return None
    if not isinstance(dev.location, AtCluster):
        return None
    here = dev.location.aggregator

    best: tuple[float, int] | None = None
    for entry in status:
        if entry.aggregator == here:
            continue
        if entry.residual_kw + EPS < dev.request.modes.min_kw:
            continue
        opt = matrix.option(here, entry.aggregator)
        if slot + opt.delay_slots > horizon_slots - 1:
            continue
        cost = opt.delay_slots * opt.cost_kwh_per_slot
        if cost > dev.available_energy_kwh + EPS:
            continue
        key = (cost, entry.aggregator)
        if best is None or key < best:
            best = key

    if best is None:
        return None
    move_cost, target = best
    stay_loss = utility.deadline_loss(
        dev.progress_kwh,
        dev.request.demand_kwh,
        slot,
        dev.request.deadline_slot,
        dev.request.criticality,
        beta_max,
    )
    if stay_loss > move_cost:
        return Move(here, target)
    return None


@dataclass
class HorizonResult:
    """Full output of one horizon run, before engine packaging."""

    decisions: dict[str, list[Action]]
    states: dict[str, DeviceState]
    committed_kw: list[list[float]]  # [slot][aggregator]
    slot_wall_s: list[float] = field(default_factory=list)

    @property
    def total_loss(self) -> float:
        return sum(self.states[dev_id].loss_total for dev_id in sorted(self.states))

    def schedule_for_slot(self, slot: int) -> SlotSchedule:
        """One slot's decisions across every device active by that slot."""
        entries = tuple(
            SlotDecision(dev_id, slot, self.decisions[dev_id][slot])
            for dev_id in sorted(self.decisions)
            if self.states[dev_id].request.arrival_slot <= slot
        )
        return SlotSchedule(slot, entries)


def run_horizon(
    cfg: SystemConfig,
    devices: Sequence[DeviceRequest],
    rank_fn: RankFn = heuristic_rank,
    mobility_enabled: bool = True,
    upgrade_policy: str = UPGRADE_ROUND_ROBIN,
) -> HorizonResult:
    """Simulate all slots: admit arrivals, schedule each cluster, publish
    status, apply mobility choices.

    Purely online: slot-t decisions see only devices with arrival <= t.
    Movement departs in the deciding slot (that slot's action becomes the
    first transit slot) and the device is schedulable at the target after
    the edge's delay. Losses accumulate per device with the deadline term
    evaluated on post-service progress.

    Each slot visits only the live set, kept in device-id order: devices
    that have arrived and can still cost something. Arrivals join it at
    their arrival slot. A device leaves it for good once it sits at a
    cluster, is `completed`, and has progress >= `demand_kwh`: from then
    on its action is Idle and its slot loss is exactly 0, so its row and
    totals are already final. Both conditions are needed, since
    `completed` allows an EPS shortfall that the deadline term still
    charges. Work per slot is therefore proportional to live devices,
    not to every request that has arrived.
    """
    tau = cfg.horizon_slots
    ordered = sorted(devices, key=lambda d: d.id)
    states = {
        d.id: DeviceState(request=d, location=AtCluster(d.home)) for d in ordered
    }
    aggs = [AggregatorState(index=j, budget_kw=cfg.budget(j)) for j in range(cfg.num_aggregators)]
    decisions: dict[str, list[Action]] = {d.id: [IDLE] * tau for d in ordered}
    committed: list[list[float]] = []
    slot_wall: list[float] = []

    arrivals: list[list[DeviceState]] = [[] for _ in range(tau)]
    for d in ordered:
        if d.arrival_slot < tau:
            arrivals[max(d.arrival_slot, 0)].append(states[d.id])
    live: list[DeviceState] = []

    for t in range(tau):
        t0 = time.perf_counter()

        if arrivals[t]:
            # two sorted runs: the sort merges them in linear time
            live.extend(arrivals[t])
            live.sort(key=_BY_ID)

        # clusters in id order; transits land here or spend the slot moving
        clusters: list[list[DeviceState]] = [[] for _ in aggs]
        for st in live:
            loc = st.location
            if isinstance(loc, InTransit):
                if loc.arrival_slot != t:
                    decisions[st.request.id][t] = Move(loc.origin, loc.target)
                    continue
                loc = st.location = AtCluster(loc.target)
            clusters[loc.aggregator].append(st)

        # aggregator phase: independent per cluster
        for agg, cluster in zip(aggs, clusters):
            assigned = schedule_slot(agg, cluster, t, cfg.slot_hours, rank_fn, upgrade_policy)
            for dev_id, action in assigned.items():
                st = states[dev_id]
                decisions[dev_id][t] = action
                delivered = st.request.modes.power(action.mode_index) * cfg.slot_hours
                st.progress_kwh += min(delivered, st.deficit_kwh)

        status = publish_status(aggs, t)

        # device phase: unserved mobile devices may depart this slot
        if mobility_enabled:
            for st in live:
                if not isinstance(st.location, AtCluster):
                    continue
                if not isinstance(decisions[st.request.id][t], Idle):
                    continue
                if st.completed:
                    continue
                move = mobility_decision(st, status, cfg.movement, t, tau, cfg.beta_max)
                if move is not None:
                    opt = cfg.movement.option(move.origin, move.target)
                    decisions[st.request.id][t] = move
                    st.location = InTransit(move.origin, move.target, t + opt.delay_slots)
                    st.extra_demand_kwh += opt.delay_slots * opt.cost_kwh_per_slot

        # loss accounting on final slot actions, then retire finished devices
        for st in live:
            action = decisions[st.request.id][t]
            breakdown = utility.slot_loss(
                st, SlotDecision(st.request.id, t, action), t, cfg
            )
            st.loss_accum += breakdown.total
            st.deadline_loss_total += breakdown.deadline_loss
            st.mobility_loss_raw += breakdown.mobility_loss
            st.stationary_penalty_total += breakdown.stationary_penalty
        live = [st for st in live if not _retired(st)]

        committed.append([agg.committed_kw for agg in aggs])
        slot_wall.append(time.perf_counter() - t0)

    return HorizonResult(
        decisions=decisions, states=states, committed_kw=committed, slot_wall_s=slot_wall
    )


def _retired(st: DeviceState) -> bool:
    """Idle with zero slot loss for every later slot: at a cluster (so no
    transit is pending), nothing left to serve, and no deadline deficit."""
    return (
        isinstance(st.location, AtCluster)
        and st.completed
        and st.request.demand_kwh - st.progress_kwh <= 0.0
    )


def run_scenario(
    scenario: Scenario,
    rank_fn: RankFn = heuristic_rank,
    mobility_enabled: bool = True,
    upgrade_policy: str = UPGRADE_ROUND_ROBIN,
) -> HorizonResult:
    return run_horizon(
        scenario.config,
        scenario.devices,
        rank_fn=rank_fn,
        mobility_enabled=mobility_enabled,
        upgrade_policy=upgrade_policy,
    )
