"""The three-term loss model and the scoring of decision rows.

All functions are pure. Losses are non-negative by construction: the
deadline term is deficit * exp(rate * lateness), the movement term is
twice the edge's per-slot cost on each slot in transit, and the
stationary penalty fires only when a non-mobile device changes cluster.
The deadline term is clamped at the configured penalty ceiling so long
horizons cannot overflow a row total. Each level of the loss is defined
once: `slot_loss` gives one slot's three weighted terms, `row_loss` sums
a device's decision row and reads its final progress, extra demand and
completion, and `total_loss` sums the rows in id order. The engine, the
replay check and the exact solver all score through `row_loss` and
`total_loss`, so they agree to the bit. Only Move slots go through
`slot_loss`; a late slot of any other action costs exactly its deadline
term, which `row_loss` adds directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import (
    DEFAULT_BETA_MAX,
    EPS,
    IDLE,
    Action,
    DeviceRequest,
    Idle,
    Move,
    Serve,
    SystemConfig,
)

# exp() overflows ~709; anything near that is clamped to the ceiling anyway
_EXP_ARG_LIMIT = 700.0


def deadline_loss(
    progress_kwh: float,
    demand_kwh: float,
    slot: int,
    deadline_slot: int,
    criticality: float,
    beta_max: float = DEFAULT_BETA_MAX,
) -> float:
    """Loss charged in one slot past the deadline with demand outstanding.

    Zero through the deadline slot and once the deficit is within `EPS`;
    afterwards deficit * exp(criticality * slots_late), clamped at `beta_max`.
    """
    if slot <= deadline_slot:
        return 0.0
    deficit = demand_kwh - progress_kwh
    if deficit <= EPS:
        return 0.0
    arg = criticality * (slot - deadline_slot)
    if arg > _EXP_ARG_LIMIT:
        return beta_max
    return min(deficit * math.exp(arg), beta_max)


def slot_loss(
    request: DeviceRequest,
    progress_kwh: float,
    action: Action,
    slot: int,
    cfg: SystemConfig,
) -> tuple[float, float, float]:
    """One device's weighted loss terms in one slot: (deadline, movement,
    stationary).

    The deadline term is evaluated against the progress already updated
    for this slot's service (delivered energy counts through the current
    slot). On a Move slot the movement term is 2x the edge's per-slot
    kWh, and the stationary term is `beta_max` when a non-mobile device
    moves between two different clusters; on any other slot both are 0.0.
    """
    d_loss = deadline_loss(
        progress_kwh,
        request.demand_kwh,
        slot,
        request.deadline_slot,
        request.criticality,
        cfg.beta_max,
    )
    if not isinstance(action, Move):
        return d_loss, 0.0, 0.0
    movement = 2.0 * cfg.movement[action.origin][action.target].cost_kwh_per_slot
    changes_cluster = not request.mobile and action.origin != action.target
    return d_loss, movement, cfg.beta_max if changes_cluster else 0.0


# slotted: a run, a replay and the exact solver each hold one per device
@dataclass(frozen=True, slots=True)
class RowLoss:
    """One device's loss and final state over its whole decision row.

    `total` is the slot-order sum of each slot's three `slot_loss` terms;
    the terms are summed alongside for reporting, so `total` need not
    equal the three sums added together to the last bit.
    `progress_kwh` is the energy the row delivers, `extra_demand_kwh`
    the movement energy its transits commit, and `completed`, a deficit
    against demand plus extra within `EPS`, the one rule for met.
    """

    total: float
    deadline_loss: float
    mobility_loss_weighted: float
    stationary_penalty: float
    progress_kwh: float
    extra_demand_kwh: float
    completed: bool


def row_loss(request: DeviceRequest, row: Sequence[Action], cfg: SystemConfig) -> RowLoss:
    """Score one device's decision row from the actions alone.

    Progress is rebuilt slot by slot with the engine's update (delivery
    capped at demand plus movement-incurred extra demand, a new transit
    committing its full cost when it starts), so a row scored here is
    bit-identical whether it came from the engine or from elsewhere,
    and the progress and extra it ends with are the device's final ones.
    Only slots that can cost something are scored: a Move, or a slot past
    the deadline with a deficit above `EPS`. Every term of any other slot is
    exactly 0, and adding 0.0 changes no sum. So scoring also starts at
    arrival, since a valid row idles before it, and an Idle slot that
    cannot cost (most of a row) is passed over with one type check: it
    changes no progress either. Once a Serve meets the demand and only
    Idle cells follow (most rows end so), the walk stops: every later
    slot costs exactly 0 and changes nothing. Only a Move slot goes
    through `slot_loss`, and adds d + m + p to `total`. Any other late slot
    has movement and stationary terms of 0.0, so that sum is
    d + 0.0 + 0.0 == d for its deadline term d >= 0; d is added to `total`
    and the deadline sum directly, with the same bits.
    """
    demand = request.demand_kwh
    deadline = request.deadline_slot
    progress = 0.0
    extra = 0.0
    total = d_sum = m_sum = p_sum = 0.0
    for slot in range(max(request.arrival_slot, 0), len(row)):
        action = row[slot]
        if type(action) is Idle and (slot <= deadline or demand - progress <= EPS):
            continue
        moving = isinstance(action, Move)
        if isinstance(action, Serve):
            delivered = request.modes.power(action.mode_index) * cfg.slot_hours
            progress += min(delivered, max(demand + extra - progress, 0.0))
            if demand - progress <= EPS:
                rest = row[slot + 1 :]
                if rest.count(IDLE) == len(rest):
                    break
        elif moving and (slot == 0 or row[slot - 1] != action):
            extra += cfg.movement[action.origin][action.target].total_kwh
        if not moving:
            if slot > deadline:
                d = deadline_loss(
                    progress, demand, slot, deadline, request.criticality, cfg.beta_max
                )
                total += d
                d_sum += d
            continue
        d, m, p = slot_loss(request, progress, action, slot, cfg)
        total += d + m + p
        d_sum += d
        m_sum += m
        p_sum += p
    return RowLoss(total, d_sum, m_sum, p_sum, progress, extra, demand + extra - progress <= EPS)


def total_loss(rows: Mapping[str, RowLoss]) -> float:
    """The cumulative loss of a decision matrix: the row totals of `rows`
    (keyed by device id) summed in id order, the one order in which the
    engine, a replay and the exact solver agree to the bit."""
    return sum(rows[dev_id].total for dev_id in sorted(rows))
