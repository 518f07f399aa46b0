"""Per-slot utility accounting: delivered energy and the three-loss model.

All functions are pure. Losses are non-negative by construction: the
deadline term is deficit * exp(rate * lateness), the mobility term is the
per-slot movement cost (weighted 2x when rolled into a slot total), and
the stationary penalty fires only when a non-mobile device changes
cluster. Each term is clamped at the configured penalty ceiling so long
horizons cannot overflow the accumulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import (
    DEFAULT_BETA_MAX,
    Action,
    DeviceState,
    Move,
    MovementMatrix,
    PowerModeSet,
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

    Zero through the deadline slot and once the demand is met; afterwards
    deficit * exp(criticality * slots_late), clamped at `beta_max`.
    """
    if slot <= deadline_slot:
        return 0.0
    deficit = demand_kwh - progress_kwh
    if deficit <= 0.0:
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
    state: DeviceState,
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
        state.progress_kwh,
        state.request.demand_kwh,
        slot,
        state.request.deadline_slot,
        state.request.criticality,
        cfg.beta_max,
    )
    m_loss = mobility_loss(cfg.movement, action)
    if isinstance(action, Move):
        pen = stationary_penalty(
            state.request.mobile, action.origin, action.target, cfg.beta_max
        )
    else:
        pen = 0.0
    return LossBreakdown(d_loss, m_loss, pen)


def replay_device_loss(
    modes: PowerModeSet,
    request_demand_kwh: float,
    deadline_slot: int,
    criticality: float,
    mobile: bool,
    actions: Sequence[Action],
    cfg: SystemConfig,
) -> float:
    """Recompute one device's total loss from its action row alone.

    Independent of engine bookkeeping: progress is rebuilt slot by slot
    (capped at demand plus movement-incurred extra demand) and each
    slot's three loss terms are summed with the 2x mobility weight. Used
    by the replay invariant check and the exact solver's objective.
    """
    progress = 0.0
    extra = 0.0
    total = 0.0
    for slot, action in enumerate(actions):
        move_cost = 0.0
        penalty = 0.0
        if isinstance(action, Serve):
            delivered = modes.power(action.mode_index) * cfg.slot_hours
            target = request_demand_kwh + extra
            progress = min(progress + delivered, target)
        elif isinstance(action, Move):
            # a new transit commits its full cost when it starts
            prev = actions[slot - 1] if slot > 0 else None
            if not (isinstance(prev, Move) and prev == action):
                extra += cfg.movement.total_cost(action.origin, action.target)
            move_cost = cfg.movement.option(action.origin, action.target).cost_kwh_per_slot
            penalty = stationary_penalty(mobile, action.origin, action.target, cfg.beta_max)
        d_loss = deadline_loss(
            progress, request_demand_kwh, slot, deadline_slot, criticality, cfg.beta_max
        )
        # same accumulation shape as the engine's slot ledger, so replayed
        # totals reproduce recorded totals bit-for-bit
        total += d_loss + 2.0 * move_cost + penalty
    return total
