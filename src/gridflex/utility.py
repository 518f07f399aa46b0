"""The three-term loss model and the scoring of decision rows.

All functions are pure. Losses are non-negative by construction: the
deadline term is deficit * exp(rate * lateness), the mobility term is the
per-slot movement cost (weighted 2x when rolled into a slot total), and
the stationary penalty fires only when a non-mobile device changes
cluster. Each term is clamped at the configured penalty ceiling so long
horizons cannot overflow a row total. `row_loss` is the one place a
device's loss is summed and its final progress, extra demand and
completion are read: the engine, the replay check and the exact solver
all score a finished decision row through it. Only its Move slots go
through `slot_loss`; a late slot of any other action costs exactly its
deadline term, which `row_loss` adds directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import (
    DEFAULT_BETA_MAX,
    EPS,
    IDLE,
    Action,
    DeviceRequest,
    Idle,
    Move,
    MovementMatrix,
    Serve,
    SystemConfig,
)

# exp() overflows ~709; anything near that is clamped to the ceiling anyway
_EXP_ARG_LIMIT = 700.0


@dataclass(frozen=True)
class LossBreakdown:
    """One slot's loss split into its three components.

    `total` always equals deadline + 2 * mobility + stationary.
    """

    deadline_loss: float
    mobility_loss: float
    stationary_penalty: float

    @property
    def total(self) -> float:
        return self.deadline_loss + 2.0 * self.mobility_loss + self.stationary_penalty


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


def mobility_loss(matrix: MovementMatrix, action: Action) -> float:
    """Per-slot movement cost: the edge's per-slot kWh while in transit, else 0."""
    if isinstance(action, Move):
        return matrix.option(action.origin, action.target).cost_kwh_per_slot
    return 0.0


def stationary_penalty(
    mobile: bool, origin: int, target: int, beta_max: float = DEFAULT_BETA_MAX
) -> float:
    """Prohibitive penalty when a non-mobile device changes cluster."""
    if mobile or origin == target:
        return 0.0
    return beta_max


def slot_loss(
    request: DeviceRequest,
    progress_kwh: float,
    action: Action,
    slot: int,
    cfg: SystemConfig,
) -> LossBreakdown:
    """Loss breakdown for one device in one slot.

    Deadline loss is evaluated against the progress already updated for
    this slot's service (delivered energy counts through the current
    slot). Movement slots charge both the per-slot movement cost and,
    when applicable, the running deadline loss.
    """
    d_loss = deadline_loss(
        progress_kwh,
        request.demand_kwh,
        slot,
        request.deadline_slot,
        request.criticality,
        cfg.beta_max,
    )
    m_loss = mobility_loss(cfg.movement, action)
    if isinstance(action, Move):
        pen = stationary_penalty(request.mobile, action.origin, action.target, cfg.beta_max)
    else:
        pen = 0.0
    return LossBreakdown(d_loss, m_loss, pen)


@dataclass(frozen=True)
class RowLoss:
    """One device's loss and final state over its whole decision row.

    `total` is the slot-order sum of each slot's `LossBreakdown.total`;
    the components are summed alongside for reporting, so `total` need
    not equal deadline + 2 * mobility + stationary to the last bit.
    `progress_kwh` is the energy the row delivers, `extra_demand_kwh`
    the movement energy its transits commit, and `completed`, a deficit
    against demand plus extra within `EPS`, the one rule for met.
    """

    total: float
    deadline_loss: float
    mobility_loss: float  # raw, before the 2x weight
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
    through `slot_loss`. Any other late slot has mobility and stationary terms
    of 0.0, so its `LossBreakdown.total` is d + 2.0 * 0.0 + 0.0 == d for
    its deadline term d >= 0; that term is added to `total` and the
    deadline sum directly, with the same bits.
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
            extra += cfg.movement.total_cost(action.origin, action.target)
        if not moving:
            if slot > deadline:
                d = deadline_loss(
                    progress, demand, slot, deadline, request.criticality, cfg.beta_max
                )
                total += d
                d_sum += d
            continue
        b = slot_loss(request, progress, action, slot, cfg)
        total += b.total
        d_sum += b.deadline_loss
        m_sum += b.mobility_loss
        p_sum += b.stationary_penalty
    return RowLoss(total, d_sum, m_sum, p_sum, progress, extra, demand + extra - progress <= EPS)
