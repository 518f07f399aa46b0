"""Independent oracle for the loss of a decision row, shared by the tests.

The engine, `engine.replay_loss` and the exact solver all score rows
through `utility.row_loss`, so "replay equals engine" cannot catch a
fault in the loss model. This oracle rebuilds progress, extra demand,
completion and the three loss terms from each row's actions alone, in
arbitrary precision, and without importing `gridflex.utility`.
"""

import mpmath

from gridflex.model import Move, Serve

REL = 1e-9
# a deficit at or below this many kWh is met, as `RowLoss.completed` reads it
MET_KWH = 1e-9


def oracle_row(dev, row, cfg):
    """Progress, extra, completion and loss fields of one row, summed in
    the current mpmath precision (`oracle_mismatches` uses 40 digits).

    Serving adds power x slot length, capped at demand plus the movement
    energy committed so far; a transit commits delay x per-slot cost when
    it starts and charges 2x its per-slot cost every slot it lasts; a
    non-mobile device pays beta_max per slot spent moving between
    clusters; a slot past the deadline with more than MET_KWH outstanding
    pays deficit * e^(criticality * slots late), at most beta_max. The
    row is completed when at most MET_KWH of demand plus extra is left.
    """
    mpf = mpmath.mpf
    beta_max = mpf(cfg.beta_max)
    demand = mpf(dev.demand_kwh)
    progress = extra = deadline = mobility = stationary = mpf(0)
    for slot, action in enumerate(row):
        if isinstance(action, Serve):
            delivered = mpf(dev.modes.levels_kw[action.mode_index - 1]) * mpf(cfg.slot_hours)
            progress = min(progress + delivered, demand + extra)
        elif isinstance(action, Move):
            edge = cfg.movement[action.origin][action.target]
            if slot == 0 or row[slot - 1] != action:
                extra += edge.delay_slots * mpf(edge.cost_kwh_per_slot)
            mobility += 2 * mpf(edge.cost_kwh_per_slot)
            if not dev.mobile and action.origin != action.target:
                stationary += beta_max
        if slot > dev.deadline_slot and demand - progress > MET_KWH:
            late = slot - dev.deadline_slot
            deficit = demand - progress
            deadline += min(deficit * mpmath.exp(mpf(dev.criticality) * late), beta_max)
    return {
        "loss_total": deadline + mobility + stationary,
        "deadline_loss": deadline,
        "mobility_loss_weighted": mobility,
        "stationary_penalty": stationary,
        "progress_kwh": progress,
        "extra_demand_kwh": extra,
        "completed": demand + extra - progress <= MET_KWH,
    }


def close(got, want):
    """Within REL of the oracle's value; a flag must be the same flag."""
    if isinstance(want, bool):
        return got is want
    return abs(mpmath.mpf(got) - want) <= REL * abs(want)


def oracle_mismatches(devices, cfg, decisions, per_device):
    """Ids of the rows whose fields differ from the oracle by more than REL,
    or whose `completed` flag differs.

    `per_device` maps each device id to at least the oracle's fields, as
    `RunResult.per_device` does; other fields are not compared.
    """
    by_id = {dev.id: dev for dev in devices}
    with mpmath.workdps(40):
        return [
            dev_id
            for dev_id, fields in sorted(per_device.items())
            if not all(
                close(fields[k], v)
                for k, v in oracle_row(by_id[dev_id], decisions[dev_id], cfg).items()
            )
        ]
