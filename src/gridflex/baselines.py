"""Reference schedulers: earliest-deadline and highest-power ranking.

Both reuse the heuristic's two-pass serving mechanism so the ranking
function is the only varied factor. A scheduler spec also fixes whether
device mobility is active by default; baselines keep devices in their
home clusters unless explicitly enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .heuristic import RankFn, heuristic_rank
from .model import DeviceState


def edf_rank(cluster: Sequence[DeviceState], slot: int) -> list[DeviceState]:
    """Nearest deadline first; ties by device id."""
    return sorted(cluster, key=lambda d: (d.request.deadline_slot, d.request.id))


def hp_rank(cluster: Sequence[DeviceState], slot: int) -> list[DeviceState]:
    """Largest deficit against `target_kwh` (demand plus the movement
    extra) first; ties by device id."""
    return sorted(cluster, key=lambda d: (d.progress_kwh - d.target_kwh, d.request.id))


@dataclass(frozen=True)
class SchedulerSpec:
    """A scheduler, named by its `SCHEDULERS` key: ranking function plus
    its default mobility mode."""

    rank_fn: RankFn
    mobility_default: bool


SCHEDULERS: dict[str, SchedulerSpec] = {
    "heuristic": SchedulerSpec(heuristic_rank, mobility_default=True),
    "edf": SchedulerSpec(edf_rank, mobility_default=False),
    "hp": SchedulerSpec(hp_rank, mobility_default=False),
}


def get_scheduler(name: str) -> SchedulerSpec:
    try:
        return SCHEDULERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
