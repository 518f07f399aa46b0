"""Independent schedule validator and a small-instance exact solver.

The validator replays a decision matrix against the eight feasibility
rules (single action, presence, budget, stationary/moving exclusivity,
transit continuity and duration, service bound) without trusting any
scheduler bookkeeping. The solver enumerates joint per-slot actions
depth-first with an admissible lower bound (accumulated loss plus each
device's solo full-rate future deadline loss), so its result is a true
optimum usable as an oracle against the heuristic and baselines.

Both keep their own state and treat a transit as the engine does, as a
re-arrival: the device is at its target from the departure on and may
not act before its landing slot, the departure slot plus the delay.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from . import utility
from .model import (
    EPS,
    Action,
    DeviceRequest,
    IDLE,
    Idle,
    Move,
    Scenario,
    Serve,
    SystemConfig,
    printable_id,
)

_BUDGET_TOL = 1e-9


class ScheduleFormatError(ValueError):
    """Decision matrix is structurally malformed (missing device or slot)."""


class CapExceededError(RuntimeError):
    """Instance exceeds the enumeration guardrails; solve refused."""


# ---------------------------------------------------------------------------
# Feasibility validation
# ---------------------------------------------------------------------------

CONSTRAINT_DESCRIPTIONS = {
    "i": "serve uses a mode from the device's set at the device's current aggregator",
    "ii": "one state per device-slot; no actions before arrival",
    "iii": "per-aggregator served power within the budget every slot",
    "iv": "no service while in transit",
    "v": "moves depart from the device's current cluster on a single edge",
    "vi": "a transit spans exactly its edge delay in consecutive move slots",
    "vii": "the transit window is uninterrupted by service",
    "viii": "served energy stays within demand plus movement-incurred extra demand",
}

CONSTRAINT_ORDER = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")


@dataclass
class ConstraintCheck:
    name: str
    description: str
    passed: bool = True
    witness: tuple[str, int] | None = None

    def record(self, device_id: str, slot: int) -> None:
        key = (slot, device_id)
        if self.passed or key < (self.witness[1], self.witness[0]):
            self.passed = False
            self.witness = (device_id, slot)


@dataclass
class FeasibilityReport:
    checks: dict[str, ConstraintCheck]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failed(self) -> list[ConstraintCheck]:
        return [c for c in self.checks.values() if not c.passed]

    def summary(self) -> str:
        lines = []
        for name in CONSTRAINT_ORDER:
            check = self.checks[name]
            if check.passed:
                lines.append(f"({name}) pass")
            else:
                dev, slot = check.witness
                lines.append(
                    f"({name}) FAIL at device={printable_id(dev)} slot={slot}: {check.description}"
                )
        return "\n".join(lines)


def validate_schedule(
    decisions: dict[str, list[Action]],
    cfg: SystemConfig,
    devices: list[DeviceRequest] | tuple[DeviceRequest, ...],
) -> FeasibilityReport:
    """Replay a decision matrix and report pass/fail for every rule.

    The matrix must contain one row of `horizon_slots` actions per
    device; anything else raises `ScheduleFormatError` (structural, not a
    constraint failure). Violations carry the earliest (device, slot)
    witness per constraint.
    """
    tau = cfg.horizon_slots
    by_id = {d.id: d for d in devices}
    if set(decisions) != set(by_id):
        missing = sorted(set(by_id) - set(decisions))
        extra = sorted(set(decisions) - set(by_id))
        raise ScheduleFormatError(f"device rows mismatch: missing={missing} extra={extra}")
    for dev_id, row in decisions.items():
        if len(row) != tau:
            raise ScheduleFormatError(
                f"device {printable_id(dev_id)} has {len(row)} slots, expected {tau}"
            )

    checks = {
        name: ConstraintCheck(name, CONSTRAINT_DESCRIPTIONS[name])
        for name in CONSTRAINT_ORDER
    }
    load: dict[tuple[int, int], float] = {}

    for dev_id in sorted(decisions):
        dev = by_id[dev_id]
        row = decisions[dev_id]
        progress = 0.0
        extra = 0.0
        # a transit is a re-arrival: the departure puts the device at its
        # target at once, and every cell before `landing` must repeat it
        location = dev.home
        transit: Move | None = None
        landing = 0
        # an all-Idle prefix up to arrival changes nothing; any other
        # prefix is walked from slot 0 so check ii sees its first cell (the
        # count cannot match an arrival below 0 or past the horizon)
        arrival = dev.arrival_slot
        start = arrival if row[:arrival].count(IDLE) == arrival else 0

        for t, action in enumerate(row[start:], start):
            if transit is not None:
                if t < landing:
                    if action == transit:
                        continue
                    # transit interrupted before its delay elapsed
                    checks["vi"].record(dev_id, t)
                    if isinstance(action, Serve):
                        checks["iv"].record(dev_id, t)
                        checks["vii"].record(dev_id, t)
                    if isinstance(action, Move):
                        checks["v"].record(dev_id, t)
                transit = None
            elif type(action) is Idle:
                # nothing to check or replay
                continue

            if isinstance(action, Move):
                if t < dev.arrival_slot:
                    checks["ii"].record(dev_id, t)
                bad_edge = False
                if not (
                    0 <= action.origin < cfg.num_aggregators
                    and 0 <= action.target < cfg.num_aggregators
                ):
                    checks["v"].record(dev_id, t)
                    bad_edge = True
                elif action.origin == action.target:
                    checks["v"].record(dev_id, t)
                    bad_edge = True
                elif action.origin != location:
                    checks["v"].record(dev_id, t)
                if bad_edge:
                    continue
                opt = cfg.movement[action.origin][action.target]
                extra += opt.total_kwh
                location, transit, landing = action.target, action, t + opt.delay_slots

            elif isinstance(action, Serve):
                if t < dev.arrival_slot:
                    checks["ii"].record(dev_id, t)
                if not 1 <= action.mode_index <= len(dev.modes_kw):
                    checks["i"].record(dev_id, t)
                    continue
                if not 0 <= action.aggregator < cfg.num_aggregators:
                    checks["i"].record(dev_id, t)
                    continue
                if action.aggregator != location:
                    checks["i"].record(dev_id, t)
                power = dev.modes_kw[action.mode_index - 1]
                load[(t, action.aggregator)] = load.get((t, action.aggregator), 0.0) + power
                deficit = dev.demand_kwh + extra - progress
                if deficit <= EPS:
                    checks["viii"].record(dev_id, t)
                progress = min(progress + power * cfg.slot_hours, dev.demand_kwh + extra)

        if transit is not None and landing > tau:
            # transit ran into the end of the horizon
            checks["vi"].record(dev_id, tau - 1)

    for (t, j), total in sorted(load.items()):
        if total > cfg.budgets_kw[j] + _BUDGET_TOL:
            overloaded = [
                dev_id
                for dev_id in sorted(decisions)
                if isinstance(decisions[dev_id][t], Serve)
                and decisions[dev_id][t].aggregator == j
            ]
            checks["iii"].record(overloaded[-1] if overloaded else "?", t)

    return FeasibilityReport(checks)


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------


# Enumeration guardrails: instances beyond these are refused.
MAX_DEVICES = 4
MAX_SLOTS = 8
MAX_MODES = 3
MAX_AGGREGATORS = 3


@dataclass(frozen=True)
class ExactCaps:
    """Search budget: the solve is refused once it expands more nodes."""

    node_budget: int = 10**8


@dataclass(frozen=True)
class ExactInstance:
    scenario: Scenario
    caps: ExactCaps = ExactCaps()


@dataclass
class ExactResult:
    loss: float
    decisions: dict[str, list[Action]]
    nodes: int


class _Searcher:
    """Depth-first joint-action search with backtracking state."""

    def __init__(self, cfg: SystemConfig, devices: list[DeviceRequest], node_budget: int):
        self.cfg = cfg
        self.devices = devices
        self.node_budget = node_budget
        self.tau = cfg.horizon_slots
        self.K = len(devices)
        self.nodes = 0

        self.progress = [0.0] * self.K
        self.extra = [0.0] * self.K
        # a transit is a re-arrival: a departure writes all its Move cells,
        # sets `loc` to the target and `free` (the first slot the device
        # may act in, at first its arrival) to the landing slot
        self.loc = [d.home for d in devices]
        self.free = [d.arrival_slot for d in devices]
        self.actions = [[IDLE] * self.tau for _ in range(self.K)]
        self.residual = [0.0] * cfg.num_aggregators

        self.best_loss = math.inf
        self.best_actions: list[list[Action]] | None = None

    # -- admissible lower bound -------------------------------------------------

    def _future_floor(self, t_next: int) -> float:
        """Unavoidable loss from slot t_next on: per device, the cost of the
        rest of a transit under way plus deadline losses under solo
        full-rate service."""
        total = 0.0
        for k, dev in enumerate(self.devices):
            progress = self.progress[k]
            deficit = dev.demand_kwh - progress
            start = max(t_next, self.free[k])
            pending = self.actions[k][t_next]
            if isinstance(pending, Move):
                edge = self.cfg.movement[pending.origin][pending.target]
                total += 2.0 * (start - t_next) * edge.cost_kwh_per_slot
            if deficit <= EPS:
                continue
            rate = dev.modes_kw[-1] * self.cfg.slot_hours
            for t in range(t_next, self.tau):
                if t >= start:
                    deficit -= rate
                total += utility.deadline_loss(
                    dev.demand_kwh - max(deficit, 0.0),
                    dev.demand_kwh,
                    t,
                    dev.deadline_slot,
                    dev.criticality,
                    self.cfg.beta_max,
                )
                if deficit <= EPS:
                    break
        return total

    # -- search -----------------------------------------------------------------

    def solve(self) -> ExactResult:
        self._enter_slot(0, 0.0)
        if self.best_actions is None:
            raise RuntimeError("search completed without a feasible schedule")
        decisions = {
            dev.id: list(self.best_actions[k]) for k, dev in enumerate(self.devices)
        }
        # rescore through the engine's scorers so the reported optimum
        # is float-identical to any engine-scored schedule it ties with
        rows = {dev.id: utility.row_loss(dev, decisions[dev.id], self.cfg) for dev in self.devices}
        return ExactResult(utility.total_loss(rows), decisions, self.nodes)

    def _enter_slot(self, t: int, acc: float) -> None:
        if t == self.tau:
            if acc < self.best_loss:
                self.best_loss = acc
                self.best_actions = [list(row) for row in self.actions]
            return
        if acc + self._future_floor(t) >= self.best_loss:
            return
        saved, self.residual = self.residual, list(self.cfg.budgets_kw)
        self._branch_device(t, 0, acc)
        self.residual = saved

    def _branch_device(self, t: int, k: int, acc: float) -> None:
        if k == self.K:
            slot_add = 0.0
            for i, dev in enumerate(self.devices):
                action = self.actions[i][t]
                if isinstance(action, Move):
                    edge = self.cfg.movement[action.origin][action.target]
                    slot_add += 2.0 * edge.cost_kwh_per_slot
                slot_add += utility.deadline_loss(
                    self.progress[i],
                    dev.demand_kwh,
                    t,
                    dev.deadline_slot,
                    dev.criticality,
                    self.cfg.beta_max,
                )
            if acc + slot_add < self.best_loss:
                self._enter_slot(t + 1, acc + slot_add)
            return

        dev = self.devices[k]
        loc = self.loc[k]

        self.nodes += 1
        if self.nodes > self.node_budget:
            raise CapExceededError(
                f"node budget {self.node_budget} exceeded; instance too large"
            )

        # forced: not yet arrived or in transit; the cell already holds
        # Idle or the transit's Move
        if t < self.free[k]:
            self._branch_device(t, k + 1, acc)
            return

        deficit = dev.demand_kwh + self.extra[k] - self.progress[k]

        # serve options, highest mode first so good leaves are found early
        if deficit > EPS:
            for mode_index in range(len(dev.modes_kw), 0, -1):
                power = dev.modes_kw[mode_index - 1]
                if power > self.residual[loc] + _BUDGET_TOL:
                    continue
                delivered = min(power * self.cfg.slot_hours, deficit)
                self.actions[k][t] = Serve(mode_index, loc)
                self.residual[loc] -= power
                self.progress[k] += delivered
                self._branch_device(t, k + 1, acc)
                self.progress[k] -= delivered
                self.residual[loc] += power
                self.actions[k][t] = IDLE

        # idle
        self.actions[k][t] = IDLE
        self._branch_device(t, k + 1, acc)

        # moves (mobile devices only; affordable, completing within the horizon)
        if dev.mobile and deficit > EPS:
            free = self.free[k]
            available = dev.initial_energy_kwh + self.progress[k] - self.extra[k]
            options = []
            for target in range(self.cfg.num_aggregators):
                if target == loc:
                    continue
                opt = self.cfg.movement[loc][target]
                cost = opt.total_kwh
                if cost > available + EPS:
                    continue
                if t + opt.delay_slots > self.tau - 1:
                    continue
                options.append((cost, target, opt))
            for cost, target, opt in sorted(options):
                landing = t + opt.delay_slots
                self.actions[k][t:landing] = [Move(loc, target)] * opt.delay_slots
                self.extra[k] += cost
                self.loc[k], self.free[k] = target, landing
                self._branch_device(t, k + 1, acc)
                self.loc[k], self.free[k] = loc, free
                self.extra[k] -= cost
                self.actions[k][t:landing] = [IDLE] * opt.delay_slots


def solve_exact(instance: ExactInstance) -> ExactResult:
    """Globally minimal cumulative loss over all feasible decision matrices.

    Refuses (raises `CapExceededError`) when the instance breaches the
    size caps or the search expands more nodes than the budget allows;
    never truncates silently. Moves by non-mobile devices are excluded
    from the branch space: the stationary penalty is configured to
    dominate every other reachable loss, so no optimal schedule contains
    one.
    """
    scenario = instance.scenario
    cfg = scenario.config
    devices = sorted(scenario.devices, key=lambda d: d.id)

    if len(devices) > MAX_DEVICES:
        raise CapExceededError(f"{len(devices)} devices > cap {MAX_DEVICES}")
    if cfg.horizon_slots > MAX_SLOTS:
        raise CapExceededError(f"{cfg.horizon_slots} slots > cap {MAX_SLOTS}")
    if cfg.num_aggregators > MAX_AGGREGATORS:
        raise CapExceededError(f"{cfg.num_aggregators} aggregators > cap {MAX_AGGREGATORS}")
    for dev in devices:
        if len(dev.modes_kw) > MAX_MODES:
            raise CapExceededError(
                f"device {printable_id(dev.id)} has {len(dev.modes_kw)} modes > cap {MAX_MODES}"
            )

    searcher = _Searcher(cfg, devices, instance.caps.node_budget)
    return searcher.solve()


# ---------------------------------------------------------------------------
# Oracle gap reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapRow:
    scenario_id: str
    exact_loss: float
    heuristic_loss: float
    ratio: float


@dataclass(frozen=True)
class GapReport:
    rows: tuple[GapRow, ...]

    @property
    def median_ratio(self) -> float:
        return statistics.median(r.ratio for r in self.rows) if self.rows else math.nan

    @property
    def max_ratio(self) -> float:
        return max((r.ratio for r in self.rows), default=math.nan)


def gap_report(instances: list[ExactInstance]) -> GapReport:
    """Exact-vs-heuristic (mobility on) loss per instance with ratio statistics.

    Propagates `CapExceededError` from any refused instance.
    """
    from .heuristic import run_scenario

    rows = []
    for instance in instances:
        exact_result = solve_exact(instance)
        h_loss = run_scenario(instance.scenario).total_loss
        e_loss = exact_result.loss
        if e_loss <= EPS and h_loss <= EPS:
            ratio = 1.0
        elif e_loss <= EPS:
            ratio = math.inf
        else:
            ratio = h_loss / e_loss
        rows.append(GapRow(instance.scenario.scenario_id, e_loss, h_loss, ratio))
    return GapReport(tuple(rows))
