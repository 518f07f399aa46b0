"""Scenario generation and EV session ingestion.

Synthetic scenarios target a drawn per-cluster utilization band by
splitting the cluster's energy across periodic device instances with a
uniform simplex (Dirichlet) draw, then clipping and redistributing until
every instance respects its window's deliverable-energy cap. Session
ingestion maps real charging records onto one simulated day.

Both builders fill what their input leaves open from the module
constants below, through one mode draw (`_draw_modes`) and one
configuration (`_line_config`).

All randomness comes from numpy's PCG64 generator seeded explicitly, so
generation is reproducible bit-for-bit; demands are rounded to 0.01 kWh.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import datetime
from importlib import resources
from typing import TYPE_CHECKING

from .model import (
    DeviceRequest,
    Scenario,
    ScenarioFormatError,
    SystemConfig,
    line_movement,
    uniform_movement,
)

# numpy is imported inside the four functions that draw from it, so a
# command that draws nothing (run, validate, solve-exact) never loads it
if TYPE_CHECKING:
    import numpy as np

# utilization bands: cluster demand as a fraction of budget * slot_hours * slots
LOAD_CLASSES = {
    "L": (0.5, 1.0),
    "M": (1.0, 1.25),
    "H": (1.25, 1.5),
}

# Fixed completion constants; MODE_POOL is ascending.
MODE_POOL = (1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0)
PERIODICITY_POOL = (6, 12, 24, 48)
KAPPA_POOL = (1.6, 1.8, 2.0)

# Per-slot aggregator budget sized so every load class is reachable at the
# smallest device count in the experiment grid while the high band stays
# over-subscribed (devices top out at the 50 kW pool mode).
BUDGET_KW = 100.0
SLOT_HOURS = 0.5
MOVE_COST_KWH_PER_SLOT = 0.15  # flat per-slot cost on the line topology
GEN_HORIZON_SLOTS = 50
INGEST_AGGREGATORS = 5
INGEST_HORIZON_SLOTS = 48  # one day of half-hour slots

REPLICA_FILENAME = "ev_sessions_2020_replica.csv"
SESSION_COLUMNS = ("arrival", "departure", "kwh", "station")


class GenerationError(RuntimeError):
    """A cluster's utilization target is unreachable under the mode pool."""


@dataclass(frozen=True)
class GenSpec:
    """Knobs for one synthetic scenario; everything else is a module constant."""

    num_devices: int
    class_combo: tuple[str, ...] = ("L", "L", "M", "M", "H")
    mobile_fraction: float = 0.5
    seed: int = 0


def _simplex_split(
    rng: np.random.Generator, target: float, caps: np.ndarray
) -> np.ndarray:
    """Split `target` across entries with per-entry caps, uniformly at random.

    Dirichlet(1,..,1) draw rescaled to the target, then iterative clip-and-
    redistribute so no entry exceeds its cap. The statistical intent is a
    uniform draw over the capped simplex, approximated by redistribution.
    """
    import numpy as np

    if float(np.sum(caps)) < target * 0.99:
        raise GenerationError(
            f"cluster target {target:.2f} kWh exceeds deliverable cap {float(np.sum(caps)):.2f}"
        )
    shares = rng.dirichlet(np.ones(len(caps))) * target
    for _ in range(200):
        over = shares > caps
        if not np.any(over):
            break
        surplus = float(np.sum(shares[over] - caps[over]))
        shares[over] = caps[over]
        headroom = caps - shares
        room = headroom > 1e-12
        if not np.any(room):
            break
        weights = headroom[room] / float(np.sum(headroom[room]))
        shares[np.flatnonzero(room)] += weights * surplus
    return np.minimum(shares, caps)


def _draw_modes(rng: np.random.Generator, need_kw: float) -> tuple[float, ...] | None:
    """The smallest pool mode covering `need_kw`, plus up to two seeded lower
    modes for downshifting; None when no pool mode covers it."""
    eligible = [m for m in MODE_POOL if m + 1e-12 >= need_kw]
    if not eligible:
        return None
    top = eligible[0]
    lower = [m for m in MODE_POOL if m < top]
    n_extra = int(rng.integers(0, min(len(lower), 2) + 1))
    extras = (
        sorted(float(m) for m in rng.choice(lower, size=n_extra, replace=False))
        if n_extra
        else []
    )
    return tuple(extras + [float(top)])


def _line_config(num_aggregators: int, horizon_slots: int) -> SystemConfig:
    """Line topology with uniform budgets, the shape of every completed scenario."""
    return SystemConfig(
        num_aggregators=num_aggregators,
        budgets_kw=(BUDGET_KW,) * num_aggregators,
        horizon_slots=horizon_slots,
        slot_hours=SLOT_HOURS,
        movement=line_movement(num_aggregators, MOVE_COST_KWH_PER_SLOT),
    )


def check_mobile_fraction(fraction: float) -> None:
    """Raise `ValueError` unless `fraction` is in [0, 1]; both builders call this."""
    if not 0.0 <= fraction <= 1.0:  # NaN fails both comparisons
        raise ValueError(f"mobile_fraction must be in [0, 1], got {fraction}")


@dataclass
class _DeviceDraft:
    device_index: int
    cluster: int
    periodicity: int
    kappa: float
    mobile: bool
    windows: list[tuple[int, int]] = field(default_factory=list)
    demands: list[float] = field(default_factory=list)


def generate(spec: GenSpec) -> Scenario:
    """Build one validated scenario from the parameter grid.

    Each device repeats periodically (arrival = previous deadline) over
    the horizon; every cluster's total demand lands inside its drawn
    utilization band within 1%. Raises `GenerationError` when a band is
    unreachable under the mode pool, and `ValueError` for fewer than one
    device, a mobile fraction outside [0, 1], an empty class combination
    or an unknown load class. The
    grid itself is fixed: a `GEN_HORIZON_SLOTS`-slot horizon of
    `SLOT_HOURS` slots, one aggregator per load class on a line
    (`MOVE_COST_KWH_PER_SLOT`) with `BUDGET_KW` each, and periodicities,
    criticalities and modes from the pools.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(spec.seed))
    J = len(spec.class_combo)
    tau = GEN_HORIZON_SLOTS

    if spec.num_devices < 1:
        raise ValueError(f"num_devices must be at least 1, got {spec.num_devices}")
    check_mobile_fraction(spec.mobile_fraction)
    if not spec.class_combo:
        raise ValueError("class_combo must name at least one load class")
    for cls in spec.class_combo:
        if cls not in LOAD_CLASSES:
            raise ValueError(f"unknown load class {cls!r}")

    # physical devices: periodicity, criticality, mobility, home cluster
    drafts: list[_DeviceDraft] = []
    homes = [i % J for i in range(spec.num_devices)]
    rng.shuffle(homes)
    n_mobile = int(round(spec.mobile_fraction * spec.num_devices))
    mobile_flags = np.zeros(spec.num_devices, dtype=bool)
    mobile_flags[:n_mobile] = True
    rng.shuffle(mobile_flags)
    for i in range(spec.num_devices):
        drafts.append(
            _DeviceDraft(
                device_index=i,
                cluster=homes[i],
                periodicity=int(rng.choice(PERIODICITY_POOL)),
                kappa=float(rng.choice(KAPPA_POOL)),
                mobile=bool(mobile_flags[i]),
            )
        )
        draft = drafts[-1]
        start = 0
        while start < tau - 1:
            end = min(start + draft.periodicity, tau)
            draft.windows.append((start, end))
            start = end

    rate_cap = max(MODE_POOL)  # below BUDGET_KW, so every pool mode fits

    # per-cluster utilization target, split over that cluster's instances
    capacity = BUDGET_KW * SLOT_HOURS * tau
    for j, cls in enumerate(spec.class_combo):
        low, high = LOAD_CLASSES[cls]
        util = float(rng.uniform(low, high))
        target = util * capacity
        members = [d for d in drafts if d.cluster == j]
        instances = [
            (d, w) for d in members for w in d.windows
        ]
        if not instances:
            raise GenerationError(f"cluster {j} has no devices to carry its load")
        caps = np.array(
            [rate_cap * SLOT_HOURS * (w[1] - w[0]) - 0.01 for _, w in instances]
        )
        shares = _simplex_split(rng, target, caps)
        for (draft, _w), kwh in zip(instances, shares):
            draft.demands.append(max(round(float(kwh), 2), 0.01))

    # one mode set per device, covering its steepest instance
    devices: list[DeviceRequest] = []
    for draft in drafts:
        need = max(
            kwh / (SLOT_HOURS * (w[1] - w[0]))
            for (w, kwh) in zip(draft.windows, draft.demands)
        )
        # never None: each share is capped 0.01 kWh below what the top pool
        # mode delivers in its window, and rounding to 0.01 kWh adds at
        # most 0.005, so the need stays below that mode
        modes = _draw_modes(rng, need)
        initial = round(float(rng.uniform(0.5, 1.5)), 2) if draft.mobile else 0.0
        for inst, ((start, end), kwh) in enumerate(zip(draft.windows, draft.demands)):
            devices.append(
                DeviceRequest(
                    id=f"d{draft.device_index:03d}#{inst}",
                    arrival_slot=start,
                    deadline_slot=end,
                    mobile=draft.mobile,
                    initial_energy_kwh=initial,
                    demand_kwh=kwh,
                    criticality=draft.kappa,
                    modes_kw=modes,
                    home=draft.cluster,
                )
            )

    cfg = _line_config(J, tau)
    combo = "".join(spec.class_combo)
    scenario_id = (
        f"gen-n{spec.num_devices}-{combo}-m{int(round(spec.mobile_fraction * 100))}"
        f"-s{spec.seed}"
    )
    return Scenario(scenario_id, cfg, tuple(sorted(devices, key=lambda d: d.id)))


# ---------------------------------------------------------------------------
# Micro-instances for the exact oracle
# ---------------------------------------------------------------------------


def micro_instances(
    count: int,
    seed: int = 0,
    max_devices: int = 3,
    max_slots: int = 6,
    max_aggregators: int = 2,
) -> list[Scenario]:
    """Small random instances sized for exhaustive solving.

    Demands are drawn tight against the aggregator budget so many
    instances are genuinely conflicted; everything passes model
    validation by construction.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    out: list[Scenario] = []
    for index in range(count):
        J = int(rng.integers(1, max_aggregators + 1))
        K = int(rng.integers(1, max_devices + 1))
        tau = int(rng.integers(3, max_slots + 1))
        budget = float(rng.choice([2.0, 3.0, 4.0]))
        slot_hours = 0.5
        cfg = SystemConfig(
            num_aggregators=J,
            budgets_kw=tuple([budget] * J),
            horizon_slots=tau,
            slot_hours=slot_hours,
            movement=uniform_movement(J, 1, 0.1),
        )
        devices = []
        for k in range(K):
            arrival = int(rng.integers(0, max(tau - 2, 1)))
            deadline = int(rng.integers(arrival + 1, tau + 1))
            n_modes = int(rng.integers(1, 3))
            levels = rng.choice([1.0, 2.0, 3.0], size=n_modes, replace=False)
            modes = tuple(sorted(float(m) for m in levels))
            window = deadline - arrival
            cap = modes[-1] * slot_hours * window
            demand = round(float(rng.uniform(0.3, 1.0)) * cap, 2)
            demand = max(demand, 0.01)
            devices.append(
                DeviceRequest(
                    id=f"m{k}",
                    arrival_slot=arrival,
                    deadline_slot=deadline,
                    mobile=bool(rng.integers(0, 2)) if J > 1 else False,
                    initial_energy_kwh=round(float(rng.uniform(0.0, 0.5)), 2),
                    demand_kwh=demand,
                    criticality=float(rng.choice(KAPPA_POOL)),
                    modes_kw=modes,
                    home=int(rng.integers(0, J)),
                )
            )
        out.append(Scenario(f"micro-s{seed}-{index}", cfg, tuple(devices)))
    return out


# ---------------------------------------------------------------------------
# EV charging session ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionRecord:
    arrival: datetime
    departure: datetime
    energy_kwh: float
    station: str


def parse_sessions(text: str) -> tuple[list[SessionRecord], int]:
    """Parse delimited session records (header: arrival, departure, kwh, station).

    A header without one of those columns raises `ScenarioFormatError`
    naming the missing ones, as does text the csv module cannot read.
    Rows with missing fields, unparseable timestamps, a non-positive or
    non-finite energy, a departure at or before the arrival, or one
    timestamp with a UTC offset and the other without (they cannot be
    compared) are skipped; the skip count is returned alongside.
    """
    records: list[SessionRecord] = []
    skipped = 0
    reader = csv.DictReader(io.StringIO(text))
    try:
        missing = [c for c in SESSION_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ScenarioFormatError(f"session header lacks column(s): {', '.join(missing)}")
        for row in reader:
            try:
                arrival = datetime.fromisoformat(row["arrival"].strip())
                departure = datetime.fromisoformat(row["departure"].strip())
                energy = float(row["kwh"])
                station = row["station"].strip()
                # comparing an offset-aware time with a naive one raises TypeError
                usable = departure > arrival and 0 < energy < math.inf
            # a short row fills its missing fields with None
            except (TypeError, ValueError, AttributeError):
                usable = False
            if not usable:
                skipped += 1
                continue
            records.append(SessionRecord(arrival, departure, energy, station))
    except csv.Error as exc:  # a field longer than the csv module's limit
        raise ScenarioFormatError(f"unreadable session records: {exc}") from exc
    return records, skipped


def bundled_replica_text() -> str:
    """The packaged synthetic stand-in for one year of charging sessions."""
    return resources.files("gridflex").joinpath("data", REPLICA_FILENAME).read_text()


@dataclass(frozen=True)
class IngestSpec:
    """Seeded completion of the fields the session records lack."""

    seed: int = 0
    mobile_fraction: float = 0.5


def ingest_sessions(
    records: list[SessionRecord], spec: IngestSpec = IngestSpec()
) -> tuple[Scenario, int]:
    """Map session records onto one simulated day.

    The day is `INGEST_HORIZON_SLOTS` slots of `SLOT_HOURS`, served by
    `INGEST_AGGREGATORS` aggregators on a line (`BUDGET_KW` each, moves at
    `MOVE_COST_KWH_PER_SLOT`); stations are assigned to aggregators round
    robin in name order. Arrival time-of-day becomes the arrival slot; the
    deadline is arrival plus the stay length in slots, clipped to slot
    `tau - 1` (stays cross midnight without wrapping), one slot short of
    the `tau` the scenario schema allows. That clip is kept as found; it
    is not checked against the paper. Each device gets the smallest pool
    mode that makes its demand feasible, plus seeded lower modes,
    criticality, and a mobility flag. A session is dropped when its stay
    maps to no slot before the clip, when its energy rounds to 0.00 kWh,
    or when no pool mode delivers it in its window. Returns the scenario
    and the count of sessions dropped; raises `ValueError` for a mobile
    fraction outside [0, 1].
    """
    import numpy as np

    check_mobile_fraction(spec.mobile_fraction)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    tau = INGEST_HORIZON_SLOTS
    slot_minutes = SLOT_HOURS * 60.0

    stations = sorted({r.station for r in records})
    station_home = {s: i % INGEST_AGGREGATORS for i, s in enumerate(stations)}

    devices: list[DeviceRequest] = []
    dropped = 0
    ordered = sorted(records, key=lambda r: (r.arrival, r.station, r.energy_kwh))
    for idx, rec in enumerate(ordered):
        minutes = rec.arrival.hour * 60 + rec.arrival.minute
        arrival_slot = int(minutes // slot_minutes) % tau
        duration_h = (rec.departure - rec.arrival).total_seconds() / 3600.0
        duration_slots = max(int(math.ceil(duration_h / SLOT_HOURS)), 1)
        deadline_slot = min(arrival_slot + duration_slots, tau - 1)
        if deadline_slot <= arrival_slot:
            dropped += 1
            continue
        window = deadline_slot - arrival_slot
        demand = round(rec.energy_kwh, 2)
        # below 0.005 kWh the energy rounds to a demand of 0.0, which no
        # scenario may hold; drop the session before it draws its modes
        if demand <= 0.0:
            dropped += 1
            continue
        modes = _draw_modes(rng, demand / (SLOT_HOURS * window))
        if modes is None:
            dropped += 1
            continue
        mobile = bool(rng.random() < spec.mobile_fraction)
        devices.append(
            DeviceRequest(
                id=f"s{idx:04d}",
                arrival_slot=arrival_slot,
                deadline_slot=deadline_slot,
                mobile=mobile,
                initial_energy_kwh=round(float(rng.uniform(0.5, 1.5)), 2) if mobile else 0.0,
                demand_kwh=demand,
                criticality=float(rng.choice(KAPPA_POOL)),
                modes_kw=modes,
                home=station_home[rec.station],
            )
        )

    cfg = _line_config(INGEST_AGGREGATORS, tau)
    scenario = Scenario(f"ev-replica-s{spec.seed}", cfg, tuple(devices))
    return scenario, dropped
