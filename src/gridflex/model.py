"""Domain model for the two-tier aggregator/device scheduling system.

Pure data types plus load-time validation. Units:
- Power: kW
- Energy: kWh
- Time: integer slot indices 0..horizon-1, each slot `slot_hours` long

No scheduling logic lives here; schedulers and the simulation engine own
all mutation of runtime state.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Union

EPS = 1e-9

# Default prohibitive penalty for moving a stationary device; also the
# per-term clamp applied to deadline losses so long horizons cannot overflow.
DEFAULT_BETA_MAX = 1e9

SCENARIO_SCHEMA_VERSION = 1

# Ceiling on `horizon_slots`. Work and memory grow with slots even when
# nothing is live (every device keeps one action per slot), so a document
# must not ask for an unbounded horizon; every bundled, generated and
# benchmark scenario uses 48 or 50 slots.
MAX_HORIZON_SLOTS = 1000


class ScenarioFormatError(ValueError):
    """Raised when a scenario document is structurally malformed."""


# ---------------------------------------------------------------------------
# Movement options
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MovementOption:
    """Delay (slots) and per-slot energy cost (kWh) of one directed move."""

    delay_slots: int
    cost_kwh_per_slot: float

    @property
    def total_kwh(self) -> float:
        """Energy of the whole move, its one definition: delay * per-slot cost."""
        return self.delay_slots * self.cost_kwh_per_slot


# Directed movement options between every ordered aggregator pair, an
# n x n table indexed `[origin][target]`. The diagonal is pinned to
# (0, 0); off-diagonal entries must have a delay of 1 to
# `MAX_HORIZON_SLOTS` slots and a non-negative per-slot cost. Those values
# are checked by `validate_config`, not at construction, as for
# `PowerModeSet`.
MovementTable = tuple[tuple[MovementOption, ...], ...]


def movement_table(
    num_aggregators: int, off_diagonal: Callable[[int, int], MovementOption]
) -> MovementTable:
    """The n x n table with the (0, 0) diagonal and `off_diagonal(i, j)`
    everywhere else, asked for in row-major order."""
    return tuple(
        tuple(
            MovementOption(0, 0.0) if i == j else off_diagonal(i, j)
            for j in range(num_aggregators)
        )
        for i in range(num_aggregators)
    )


def line_movement(num_aggregators: int, cost_kwh_per_slot: float = 0.15) -> MovementTable:
    """Line topology: delay equals index distance, flat per-slot cost."""
    return movement_table(
        num_aggregators, lambda i, j: MovementOption(abs(i - j), cost_kwh_per_slot)
    )


def uniform_movement(
    num_aggregators: int, delay_slots: int, cost_kwh_per_slot: float
) -> MovementTable:
    return movement_table(
        num_aggregators, lambda i, j: MovementOption(delay_slots, cost_kwh_per_slot)
    )


# ---------------------------------------------------------------------------
# Device power modes and requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerModeSet:
    """Discrete power levels of one device.

    `levels_kw` holds the non-zero modes; mode index 0 is the implicit
    0 kW (unserved) mode, so `power(i)` maps index 1..n onto the list.
    Well-formedness (strictly ascending, positive, finite, non-empty) is
    checked by `validate_config`, not at construction, so malformed inputs
    can be reported as violations instead of exceptions.
    """

    levels_kw: tuple[float, ...]

    @property
    def count(self) -> int:
        """Number of non-zero modes."""
        return len(self.levels_kw)

    def power(self, index: int) -> float:
        if index == 0:
            return 0.0
        return self.levels_kw[index - 1]

    @property
    def max_kw(self) -> float:
        return self.levels_kw[-1]

    def is_well_formed(self) -> bool:
        if not self.levels_kw:
            return False
        prev = 0.0
        for level in self.levels_kw:
            if not prev < level < math.inf:
                return False
            prev = level
        return True


@dataclass(frozen=True)
class DeviceRequest:
    """One device's demand request.

    Fields mirror the scenario schema: arrival/deadline in slot indices,
    energies in kWh, `criticality` the positive rate at which deadline
    losses grow, `modes` the device's discrete power levels, and `home`
    the aggregator the device starts at.
    """

    id: str
    arrival_slot: int
    deadline_slot: int
    mobile: bool
    initial_energy_kwh: float
    demand_kwh: float
    criticality: float
    modes: PowerModeSet
    home: int


# ---------------------------------------------------------------------------
# Per-slot decisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Serve:
    """Draw power at mode `mode_index` (1-based into the device's modes)
    from `aggregator` for one slot."""

    mode_index: int
    aggregator: int


@dataclass(frozen=True)
class Move:
    """Spend one slot in transit on the directed edge origin -> target."""

    origin: int
    target: int


@dataclass(frozen=True)
class Idle:
    pass


IDLE = Idle()

Action = Union[Serve, Move, Idle]


def encode_action(action: Action) -> str:
    if isinstance(action, Serve):
        return f"S:{action.mode_index}:{action.aggregator}"
    if isinstance(action, Move):
        return f"M:{action.origin}:{action.target}"
    return "I"


# the only strings `encode_action` writes: `int()` alone would also take
# " 1", "01" and "1_0"; ranges are the validator's to check
_ACTION_RE = re.compile(r"([SM]):(0|[1-9][0-9]*):(0|[1-9][0-9]*)")


def decode_action(text: str) -> Action:
    if text == "I":
        return IDLE
    match = _ACTION_RE.fullmatch(text)
    if match is not None:
        kind, first, second = match.groups()
        try:
            return (Serve if kind == "S" else Move)(int(first), int(second))
        except ValueError:  # more digits than `int()` converts
            pass
    raise ScenarioFormatError(f"unknown action encoding {text!r}")


# ---------------------------------------------------------------------------
# System configuration and scenario container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemConfig:
    num_aggregators: int
    budgets_kw: tuple[float, ...]
    horizon_slots: int
    slot_hours: float
    movement: MovementTable
    beta_max: float = DEFAULT_BETA_MAX


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    config: SystemConfig
    devices: tuple[DeviceRequest, ...]

    def device_map(self) -> dict[str, DeviceRequest]:
        return {d.id: d for d in self.devices}


# ---------------------------------------------------------------------------
# Runtime state (owned by the horizon loop; everything above is immutable)
# ---------------------------------------------------------------------------
# Only devices carry state, and only inside `heuristic.run_horizon`, which
# derives the spare capacity from the loads `schedule_slot` returns; a
# device's final state is read from its row (`utility.row_loss`).


@dataclass(slots=True)
class DeviceState:
    """Mutable runtime state of one device during a horizon run.

    `aggregator` is the cluster the device is at or, while a transit is
    under way, the cluster the transit lands at. `extra_demand_kwh` is
    the movement energy the grid must re-supply on top of the demanded
    energy; it is committed in full when a move starts. `target_kwh` is
    the total energy the device still intends to draw over the horizon,
    `request.demand_kwh + extra_demand_kwh`: it is a stored field, set at
    construction and set again by whoever changes `extra_demand_kwh` (the
    horizon loop, when a transit starts), so the slot loop reads it
    without recomputing it. `progress_kwh` counts all energy delivered
    and is capped at `target_kwh`; a device whose deficit is within
    `EPS` is met and leaves the loop. The state holds no loss and
    outlives no run: a device's loss and final state are scored from
    its finished decision row (`utility.row_loss`).
    """

    request: DeviceRequest
    aggregator: int
    progress_kwh: float = 0.0
    extra_demand_kwh: float = 0.0
    target_kwh: float = field(init=False)

    def __post_init__(self) -> None:
        self.target_kwh = self.request.demand_kwh + self.extra_demand_kwh

    @property
    def available_energy_kwh(self) -> float:
        """Energy on board: initial charge plus delivered minus spent moving."""
        return self.request.initial_energy_kwh + self.progress_kwh - self.extra_demand_kwh


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    device_id: str | None
    field: str
    rule: str

    def __str__(self) -> str:
        scope = printable_id(self.device_id) if self.device_id is not None else "<config>"
        return f"{scope}: {self.field}: {self.rule}"


def printable_id(device_id: str) -> str:
    """A device id for a one-line message: escaped as `repr` does, unquoted."""
    return repr(device_id)[1:-1]


def validate_config(cfg: SystemConfig, devices: Iterable[DeviceRequest]) -> list[Violation]:
    """Check every model invariant; returns violations as data (total function).

    An empty list means the scenario is safe to hand to any scheduler.
    """
    devices = tuple(devices)
    out: list[Violation] = []

    if cfg.num_aggregators < 1:
        out.append(Violation(None, "num_aggregators", "J >= 1"))
    if len(cfg.budgets_kw) != cfg.num_aggregators:
        out.append(Violation(None, "budgets_kw", "one budget per aggregator"))
    for j, b in enumerate(cfg.budgets_kw):
        if not b > 0:
            out.append(Violation(None, f"budgets_kw[{j}]", "budget > 0"))
    if cfg.horizon_slots < 1:
        out.append(Violation(None, "horizon_slots", "horizon >= 1 slot"))
    if cfg.horizon_slots > MAX_HORIZON_SLOTS:
        out.append(
            Violation(None, "horizon_slots", f"horizon <= {MAX_HORIZON_SLOTS} slots")
        )
    if not cfg.slot_hours > 0:
        out.append(Violation(None, "slot_hours", "slot length > 0"))
    if not cfg.beta_max > 0:
        out.append(Violation(None, "beta_max", "penalty constant > 0"))
    table = cfg.movement
    n = len(table)
    if n != cfg.num_aggregators:
        out.append(Violation(None, "movement", "matrix size matches aggregator count"))
    config_floats = [("slot_hours", cfg.slot_hours), ("beta_max", cfg.beta_max)]
    config_floats += [(f"budgets_kw[{j}]", b) for j, b in enumerate(cfg.budgets_kw)]

    # `movement_table` makes every decoded and generated table n x n with
    # a (0, 0) diagonal; a table built by hand may be neither
    square = all(len(row) == n for row in table)
    zero_diagonal = square and all(table[i][i] == MovementOption(0, 0.0) for i in range(n))
    if not zero_diagonal:
        out.append(Violation(None, "movement", "n x n table with a (0, 0) diagonal"))
    for i, row in enumerate(table):
        for j, opt in enumerate(row):
            name = f"movement[{i}][{j}]"
            config_floats.append((f"{name}.cost_kwh_per_slot", opt.cost_kwh_per_slot))
            if i == j:
                continue
            if opt.delay_slots < 1:
                out.append(Violation(None, f"{name}.delay_slots", "delay >= 1 slot"))
            # a longer transit lands inside no allowed horizon; the bound
            # also keeps `total_kwh` from overflowing its int-to-float step
            if opt.delay_slots > MAX_HORIZON_SLOTS:
                out.append(
                    Violation(None, f"{name}.delay_slots", f"delay <= {MAX_HORIZON_SLOTS} slots")
                )
            if opt.cost_kwh_per_slot < 0:
                out.append(Violation(None, f"{name}.cost_kwh_per_slot", "cost >= 0"))

    finite_config = all(math.isfinite(value) for _, value in config_floats)
    out.extend(
        Violation(None, name, "finite") for name, value in config_floats
        if not math.isfinite(value)
    )

    seen: set[str] = set()
    for dev in devices:
        if not dev.id:
            out.append(Violation(dev.id, "id", "non-empty id"))
        if dev.id in seen:
            out.append(Violation(dev.id, "id", "unique id"))
        seen.add(dev.id)

        if not dev.modes.is_well_formed():
            out.append(
                Violation(dev.id, "modes", "non-empty, strictly ascending, positive, finite")
            )
        if dev.arrival_slot < 0:
            out.append(Violation(dev.id, "arrival_slot", "R_k >= 0"))
        if not dev.arrival_slot < dev.deadline_slot:
            out.append(Violation(dev.id, "deadline_slot", "R_k < T_k"))
        if dev.deadline_slot > cfg.horizon_slots:
            out.append(Violation(dev.id, "deadline_slot", "T_k <= horizon"))
        if not dev.demand_kwh > 0:
            out.append(Violation(dev.id, "demand_kwh", "E_k > 0"))
        if dev.initial_energy_kwh < 0:
            out.append(Violation(dev.id, "initial_energy_kwh", "I_k >= 0"))
        if not dev.criticality > 0:
            out.append(Violation(dev.id, "criticality", "criticality > 0"))
        if not 0 <= dev.home < cfg.num_aggregators:
            out.append(Violation(dev.id, "home", "home aggregator exists"))
        for name in ("initial_energy_kwh", "demand_kwh", "criticality"):
            if not math.isfinite(getattr(dev, name)):
                out.append(Violation(dev.id, name, "finite"))

        if dev.modes.is_well_formed() and dev.arrival_slot < dev.deadline_slot:
            window = dev.deadline_slot - dev.arrival_slot
            cap = dev.modes.max_kw * cfg.slot_hours * window
            if dev.demand_kwh > cap + EPS:
                out.append(
                    Violation(
                        dev.id,
                        "demand_kwh",
                        f"demand {dev.demand_kwh:g} exceeds max deliverable "
                        f"{cap:g} within the window",
                    )
                )

    # the total loss must stay a finite float even if every device-slot
    # paid the beta_max clamp twice (deadline term and stationary penalty)
    # and the dearest per-slot move cost, weighted 2x
    if finite_config:
        dearest = max((opt.cost_kwh_per_slot for row in table for opt in row), default=0.0)
        device_slots = len(devices) * max(cfg.horizon_slots, 0)
        if not math.isfinite(2.0 * (device_slots * cfg.beta_max + device_slots * dearest)):
            out.append(Violation(None, "beta_max", "worst-case total loss finite"))
    return out


# ---------------------------------------------------------------------------
# Scenario (de)serialization
# ---------------------------------------------------------------------------


def _movement_to_dict(table: MovementTable) -> dict:
    pairs = [
        {
            "from": i,
            "to": j,
            "delay_slots": opt.delay_slots,
            "cost_kwh_per_slot": opt.cost_kwh_per_slot,
        }
        for i, row in enumerate(table)
        for j, opt in enumerate(row)
        if i != j
    ]
    return {"num_aggregators": len(table), "pairs": pairs}


_KIND_NAMES = {
    int: "an integer", float: "a number", str: "a string", bool: "a boolean", list: "a list"
}


def _field(doc: dict, key: str, kind: type):
    """`doc[key]` read as exactly one JSON kind, never coerced:
    - `int`: a JSON integer, or a float whose value is integral; a
      boolean or a fractional, infinite or NaN number is malformed rather
      than truncated;
    - `float`: any JSON number, as a float; `float()` would also take the
      string `"0.5"` and the boolean `true`;
    - `list`: a JSON list of numbers, as a tuple of floats; iterating the
      string `"44"` would read the budgets `(4.0, 4.0)`;
    - `str`, `bool`: exactly that JSON type; `bool()` would make `"false"`
      true, `str()` would make `null` the id `'None'`.
    """
    value = doc[key]
    if type(value) is kind and kind is not list:
        return value
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if kind is float and type(value) is int:
        return float(value)
    if kind is list and type(value) is list:
        if all(type(v) is float or type(v) is int for v in value):
            return tuple(map(float, value))
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    raise ValueError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _movement_from_dict(doc: dict, num_aggregators: int) -> MovementTable:
    """Each pair joins two different aggregators of the scenario's
    `num_aggregators` and is listed once, or the document is malformed; a
    table whose own size differs is left to `validate_config`."""
    try:
        n = _field(doc, "num_aggregators", int)
        listed: dict[tuple[int, int], MovementOption] = {}
        for p in doc["pairs"]:
            i, j = _field(p, "from", int), _field(p, "to", int)
            in_range = 0 <= i < num_aggregators and 0 <= j < num_aggregators
            if i == j or not in_range or (i, j) in listed:
                raise ValueError(f"pair {i}->{j} is diagonal, out of range or repeated")
            listed[(i, j)] = MovementOption(
                _field(p, "delay_slots", int), _field(p, "cost_kwh_per_slot", float)
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(f"bad movement matrix: {exc}") from exc

    def listed_option(i: int, j: int) -> MovementOption:
        if (i, j) not in listed:
            raise ScenarioFormatError(f"missing movement pair {i}->{j}")
        return listed[(i, j)]

    return movement_table(n, listed_option)


def scenario_to_dict(scenario: Scenario) -> dict:
    cfg = scenario.config
    return {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "id": scenario.scenario_id,
        "config": {
            "num_aggregators": cfg.num_aggregators,
            "budgets_kw": list(cfg.budgets_kw),
            "horizon_slots": cfg.horizon_slots,
            "slot_hours": cfg.slot_hours,
            "beta_max": cfg.beta_max,
            "movement": _movement_to_dict(cfg.movement),
        },
        "devices": [
            {
                "id": d.id,
                "arrival_slot": d.arrival_slot,
                "deadline_slot": d.deadline_slot,
                "mobile": d.mobile,
                "initial_energy_kwh": d.initial_energy_kwh,
                "demand_kwh": d.demand_kwh,
                "criticality": d.criticality,
                "modes_kw": list(d.modes.levels_kw),
                "home": d.home,
            }
            for d in scenario.devices
        ],
    }


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        version = _field(doc, "schema_version", int)
        if version != SCENARIO_SCHEMA_VERSION:
            raise ScenarioFormatError(
                f"unsupported schema_version {version!r} (expected {SCENARIO_SCHEMA_VERSION})"
            )
        cfg_doc = doc["config"]
        num_aggregators = _field(cfg_doc, "num_aggregators", int)
        cfg = SystemConfig(
            num_aggregators=num_aggregators,
            budgets_kw=_field(cfg_doc, "budgets_kw", list),
            horizon_slots=_field(cfg_doc, "horizon_slots", int),
            slot_hours=_field(cfg_doc, "slot_hours", float),
            movement=_movement_from_dict(cfg_doc["movement"], num_aggregators),
            beta_max=(
                _field(cfg_doc, "beta_max", float) if "beta_max" in cfg_doc else DEFAULT_BETA_MAX
            ),
        )
        # one PowerModeSet per distinct level tuple, as the generator
        # shares one per physical device; it is frozen and compares by value
        mode_sets: dict[tuple[float, ...], PowerModeSet] = {}

        def modes(levels: tuple[float, ...]) -> PowerModeSet:
            if levels not in mode_sets:
                mode_sets[levels] = PowerModeSet(levels)
            return mode_sets[levels]

        devices = tuple(
            DeviceRequest(
                id=_field(d, "id", str),
                arrival_slot=_field(d, "arrival_slot", int),
                deadline_slot=_field(d, "deadline_slot", int),
                mobile=_field(d, "mobile", bool),
                initial_energy_kwh=_field(d, "initial_energy_kwh", float),
                demand_kwh=_field(d, "demand_kwh", float),
                criticality=_field(d, "criticality", float),
                modes=modes(_field(d, "modes_kw", list)),
                home=_field(d, "home", int),
            )
            for d in doc["devices"]
        )
        return Scenario(_field(doc, "id", str), cfg, devices)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(f"bad scenario document: {exc}") from exc


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), sort_keys=True))


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text()))
