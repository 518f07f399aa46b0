"""Per-slot distributed scheduling: priority serving, status exchange,
and device-side mobility decisions.

Every slot runs three phases. Each aggregator independently ranks its
cluster and serves devices in two passes (lowest feasible non-zero mode
first, then stepwise upgrades while budget remains) and returns the
load it committed. The status published is one spare-capacity list
per slot, `max(budget - committed, 0)`, derived from those loads and
not stored; unserved mobile devices read it to weigh the movement cost
against the deadline loss of staying put. Decisions at slot t never
look at arrivals after t.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from . import utility
from .model import (
    EPS,
    Action,
    DeviceRequest,
    DeviceState,
    IDLE,
    Move,
    MovementTable,
    Scenario,
    Serve,
    SystemConfig,
)
from .priority import priority

# Ranking functions take the schedulable cluster members and the current
# slot, and return them in service order.
RankFn = Callable[[Sequence[DeviceState], int], list[DeviceState]]


def heuristic_rank(cluster: Sequence[DeviceState], slot: int) -> list[DeviceState]:
    """Descending by urgency score, `priority` of the deficit against
    `target_kwh` (demand plus the movement extra); ties by higher
    criticality, then smaller minimum mode, then id, so the order is
    total."""

    def key(d: DeviceState) -> tuple[float, float, float, str]:
        req = d.request
        return (
            -priority(d.progress_kwh, d.target_kwh, slot, req.deadline_slot),
            -req.criticality,
            req.modes.levels_kw[0],
            req.id,
        )

    return sorted(cluster, key=key)


def schedule_slot(
    cluster: Sequence[DeviceState],
    aggregator: int,
    budget_kw: float,
    slot: int,
    slot_hours: float,
    rank_fn: RankFn = heuristic_rank,
) -> tuple[dict[str, Serve], float]:
    """Assign power modes to one aggregator's cluster for one slot and
    return the answer, a `Serve` at `aggregator` per served device id,
    with the load committed, `budget_kw` minus the residual left. No
    argument is changed.

    First pass hands each ranked device its lowest non-zero mode while
    the budget holds; devices that fit nothing idle. The second pass
    walks the same order upgrading one mode step at a time, round-robin
    until a full sweep fits nothing. Never exceeds the budget and never
    overshoots a device's outstanding demand beyond one slot's
    granularity: the lowest mode may overshoot by up to one slot's
    delivery, higher modes must fit inside the remaining deficit.

    Residual only falls within a slot and no deficit changes, so the
    first pass stops once the residual is below every lowest mode in the
    cluster, and a device whose upgrade step fails once leaves the
    sweeps: it would fail every later sweep too.
    """
    # not met: the deficit exceeds EPS
    serving = [d for d in cluster if d.target_kwh - d.progress_kwh > EPS]
    ranked = rank_fn(serving, slot)

    residual = budget_kw
    assignment: dict[str, int] = {}
    served: list[DeviceState] = []

    if ranked:
        floor = min(d.request.modes.levels_kw[0] for d in ranked)
        for dev in ranked:
            if residual + EPS < floor:
                break
            lowest = dev.request.modes.levels_kw[0]
            if lowest <= residual + EPS:
                assignment[dev.request.id] = 1
                served.append(dev)
                residual -= lowest

    while served and residual > EPS:
        upgraded = []
        for dev in served:
            modes = dev.request.modes
            current = assignment[dev.request.id]
            if current >= modes.count:
                continue
            step = modes.power(current + 1) - modes.power(current)
            if step > residual + EPS:
                continue
            # the deficit, read from the fields: a served device's exceeds EPS
            if modes.power(current + 1) * slot_hours > dev.target_kwh - dev.progress_kwh + EPS:
                continue
            assignment[dev.request.id] = current + 1
            residual -= step
            upgraded.append(dev)
        served = upgraded

    answer = {dev_id: _serve(mode_index, aggregator) for dev_id, mode_index in assignment.items()}
    return answer, budget_kw - residual


@functools.cache
def _serve(mode_index: int, aggregator: int) -> Serve:
    """The one `Serve` for a (mode, aggregator) pair: actions are frozen
    and compare by value, so every assignment can share it."""
    return Serve(mode_index, aggregator)


def mobility_decision(
    dev: DeviceState,
    residual_kw: Sequence[float],
    movement: MovementTable,
    slot: int,
    horizon_slots: int,
    beta_max: float,
) -> Move | None:
    """Device-side choice to migrate after going unserved this slot.

    The deadline loss of staying is computed first, on `demand_kwh`
    without the movement extra: a move happens only when it exceeds the
    movement cost, and movement costs are never negative, so a device
    that loses nothing by staying (at or before its deadline, or with a
    deficit within `EPS`) stays without a scan. Otherwise the candidates
    are the aggregators whose published spare capacity after this slot's
    scheduling, `residual_kw[j] = max(budget - committed, 0)`, is one the
    device could actually draw on (at least its lowest mode) and whose
    transit completes within the horizon. Among the affordable ones
    (total movement cost within on-board energy) the cheapest wins, and
    the move happens only when the deadline loss of staying exceeds its
    cost.

    `run_horizon` calls this only for the devices it can move (mobile,
    unserved, with a deficit and past the deadline); the checks here stay
    so the function answers alone for any device at `dev.aggregator`.
    """
    if not dev.request.mobile:
        return None
    stay_loss = utility.deadline_loss(
        dev.progress_kwh,
        dev.request.demand_kwh,
        slot,
        dev.request.deadline_slot,
        dev.request.criticality,
        beta_max,
    )
    if stay_loss <= 0.0:
        return None
    here = dev.aggregator
    lowest = dev.request.modes.levels_kw[0]

    best: tuple[float, int] | None = None
    for j, spare in enumerate(residual_kw):
        if j == here or spare + EPS < lowest:
            continue
        opt = movement[here][j]
        if slot + opt.delay_slots > horizon_slots - 1:
            continue
        cost = opt.total_kwh
        if cost > dev.available_energy_kwh + EPS:
            continue
        key = (cost, j)
        if best is None or key < best:
            best = key

    if best is None:
        return None
    move_cost, target = best
    if stay_loss > move_cost:
        return Move(here, target)
    return None


@dataclass
class HorizonResult:
    """Full output of one horizon run, before engine packaging. `states`
    holds each device's final state and loss as `utility.row_loss` scores
    its decision row; no `DeviceState` outlives the loop."""

    decisions: dict[str, list[Action]]
    states: dict[str, utility.RowLoss]
    committed_kw: list[list[float]]  # [slot][aggregator]
    slot_wall_s: list[float]

    @property
    def total_loss(self) -> float:
        return utility.total_loss(self.states)


def run_horizon(
    cfg: SystemConfig,
    devices: Sequence[DeviceRequest],
    rank_fn: RankFn = heuristic_rank,
    mobility_enabled: bool = True,
) -> HorizonResult:
    """Simulate all slots: admit arrivals, schedule each cluster, then let
    unserved devices weigh a move against the spare capacity left.

    Purely online: slot-t decisions see only devices with arrival <= t.
    Each aggregator's cluster is one list kept across slots; a device
    joins it in its arrival slot. Its order is no state: every rank
    function is a total order. The aggregator phase only collects each
    cluster's `schedule_slot` answer and committed load; the loads are
    the slot's `committed_kw` row, and the status published is the list
    of spare capacity `max(budget - committed, 0)` built from them once
    per slot. One pass per cluster then applies the answers and rebuilds
    the list: a served device writes its Serve cell and draws the slot's
    energy, an unserved one keeps the Idle row fill. Only an unserved
    mobile device past its deadline and with a deficit is offered to
    `mobility_decision`; staying costs any other nothing. Offers read
    only the published list and the device's own state, so the order of
    the pass changes nothing. A departing device writes its whole transit
    into its row and joins the target's cluster in its landing slot, as
    an arrival does. A met device (deficit within `EPS`) leaves for good:
    its row is final. Work per slot thus follows the cluster sizes, not
    every request that has arrived. `utility.row_loss` scores each
    finished row and reads the device's final state from it.
    """
    tau = cfg.horizon_slots
    ordered = sorted(devices, key=lambda d: d.id)
    budgets = cfg.budgets_kw
    decisions: dict[str, list[Action]] = {d.id: [IDLE] * tau for d in ordered}
    committed: list[list[float]] = []
    slot_wall: list[float] = []

    # first arrivals; a transit's landing is appended later
    arrivals: list[list[DeviceState]] = [[] for _ in range(tau)]
    for d in ordered:
        if d.arrival_slot < tau:
            arrivals[max(d.arrival_slot, 0)].append(DeviceState(request=d, aggregator=d.home))
    clusters: list[list[DeviceState]] = [[] for _ in budgets]

    for t in range(tau):
        t0 = time.perf_counter()

        for st in arrivals[t]:
            clusters[st.aggregator].append(st)

        # aggregator phase: independent per cluster, an answer and its load
        phase = [
            schedule_slot(cluster, j, budgets[j], t, cfg.slot_hours, rank_fn)
            for j, cluster in enumerate(clusters)
        ]
        loads = [load for _, load in phase]
        committed.append(loads)
        # status exchange: the spare capacity each aggregator publishes
        spare = [max(budget - load, 0.0) for budget, load in zip(budgets, loads)]

        # device phase, one pass per cluster: served devices draw their
        # slot's energy, late unserved mobile devices may depart this slot,
        # and the devices that stay keep their place in the cluster
        for cluster, (served, _) in zip(clusters, phase):
            staying: list[DeviceState] = []
            for st in cluster:
                req = st.request
                action = served.get(req.id)
                if action is not None:
                    decisions[req.id][t] = action
                    delivered = req.modes.power(action.mode_index) * cfg.slot_hours
                    # the deficit, read from the fields: a served device's exceeds EPS
                    st.progress_kwh += min(delivered, st.target_kwh - st.progress_kwh)
                # met, the deficit within EPS: the row is final
                if st.target_kwh - st.progress_kwh <= EPS:
                    continue
                if action is None and mobility_enabled and req.mobile and t > req.deadline_slot:
                    move = mobility_decision(st, spare, cfg.movement, t, tau, cfg.beta_max)
                    if move is not None:
                        # the transit lands by slot tau - 1: mobility_decision
                        # offers no later one
                        opt = cfg.movement[move.origin][move.target]
                        delay = opt.delay_slots
                        decisions[req.id][t : t + delay] = [move] * delay
                        st.aggregator = move.target
                        arrivals[t + delay].append(st)
                        st.extra_demand_kwh += opt.total_kwh
                        st.target_kwh = req.demand_kwh + st.extra_demand_kwh
                        continue
                staying.append(st)
            cluster[:] = staying

        slot_wall.append(time.perf_counter() - t0)

    states = {d.id: utility.row_loss(d, decisions[d.id], cfg) for d in ordered}
    return HorizonResult(
        decisions=decisions, states=states, committed_kw=committed, slot_wall_s=slot_wall
    )


def run_scenario(scenario: Scenario) -> HorizonResult:
    return run_horizon(scenario.config, scenario.devices)
