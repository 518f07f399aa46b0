"""Priority scoring for the online heuristic.

The score is a pure function of deficit and deadline distance;
`heuristic.heuristic_rank` orders a cluster by it.
"""

from __future__ import annotations


def priority(progress_kwh: float, demand_kwh: float, slot: int, deadline_slot: int) -> float:
    """Urgency score: deficit ratio scaled by deadline distance.

    `heuristic_rank` passes a device's `target_kwh` (demand plus the
    movement extra) as `demand_kwh`, so the ratio is the deficit against
    everything the device still intends to draw.

    Overdue devices score deficit_ratio * slots_late; devices ahead of
    their deadline score deficit_ratio / slots_remaining; exactly at the
    deadline the score is the deficit ratio itself. Callers exclude
    fully-served devices, so the score is non-negative.
    """
    ratio = (demand_kwh - progress_kwh) / demand_kwh
    if slot > deadline_slot:
        return ratio * (slot - deadline_slot)
    if slot < deadline_slot:
        return ratio / (deadline_slot - slot)
    return ratio
