"""Plain reference for the schedule validator, shared by the tests.

`exact.validate_schedule` dispatches on each action's exact type, holds
its locals hoisted and keeps the served load in a `[slot][aggregator]`
table, all to save time per event. This is the walk as it stood before
that: an `isinstance` chain, attribute reads per cell and a load dict
keyed by `(slot, aggregator)`, copied verbatim. The report records
(`ConstraintCheck`, `FeasibilityReport`), the rule table and the
structural error are the validator's own; only the walk is copied.
"""

from gridflex.exact import (
    CONSTRAINT_DESCRIPTIONS,
    CONSTRAINT_ORDER,
    ConstraintCheck,
    FeasibilityReport,
    ScheduleFormatError,
    _BUDGET_TOL,
)
from gridflex.model import (
    EPS,
    Action,
    DeviceRequest,
    IDLE,
    Idle,
    Move,
    Serve,
    SystemConfig,
    printable_id,
)


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
