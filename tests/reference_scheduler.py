"""Plain reference for the slot scheduler, shared by the tests.

`heuristic.run_horizon` keeps its clusters across slots, drops devices
whose rows are final, stops its serving passes early and shares `Serve`
actions, all to save work. This reference does none of that. It is a
per-slot loop written from the docstrings of `gridflex.heuristic`,
`gridflex.baselines` and `gridflex.priority`. Each slot:

- it scans every request that has arrived and is not in transit;
- it ranks each cluster's members whose deficit exceeds EPS by the
  scheduler's documented keys;
- it runs both serving passes in full: each ranked device gets its
  lowest mode while that fits the residual, then round-robin sweeps
  upgrade served devices one mode step at a time, while the step fits
  the residual and the new mode's delivery fits the deficit, until a
  sweep upgrades nothing;
- it offers each unserved device a move as `mobility_decision` documents
  it, against the residuals the serving left.

It imports only `gridflex.model` and `gridflex.utility.deadline_loss`.
"""

from gridflex.model import EPS, IDLE, Move, Serve
from gridflex.utility import deadline_loss


class Device:
    """One request's state: where it is, from which slot it may act, and
    the energy delivered and committed to movement so far."""

    def __init__(self, request):
        self.req = request
        self.at = request.home
        self.free_from = request.arrival_slot
        self.progress = 0.0
        self.extra = 0.0

    @property
    def target(self):
        return self.req.demand_kwh + self.extra

    @property
    def deficit(self):
        return self.target - self.progress


def urgency(dev, slot):
    """`priority.priority` on the deficit against demand plus movement extra."""
    ratio = dev.deficit / dev.target
    if slot > dev.req.deadline_slot:
        return ratio * (slot - dev.req.deadline_slot)
    if slot < dev.req.deadline_slot:
        return ratio / (dev.req.deadline_slot - slot)
    return ratio


RANK_KEYS = {
    # descending urgency, then higher criticality, smaller lowest mode, id
    "heuristic": lambda d, slot: (
        -urgency(d, slot),
        -d.req.criticality,
        d.req.modes.levels_kw[0],
        d.req.id,
    ),
    # nearest deadline first, then id
    "edf": lambda d, slot: (d.req.deadline_slot, d.req.id),
    # largest outstanding demand first, then id
    "hp": lambda d, slot: (-d.deficit, d.req.id),
}


def serve_cluster(ranked, budget, slot_hours):
    """Mode index per served device and the residual left, both passes in full."""
    modes = {}
    residual = budget
    for d in ranked:
        lowest = d.req.modes.levels_kw[0]
        if lowest <= residual + EPS:
            modes[d] = 1
            residual -= lowest
    upgraded = True
    while upgraded:
        upgraded = False
        for d in ranked:
            levels = d.req.modes.levels_kw
            current = modes.get(d)
            if current is None or current == len(levels):
                continue
            step = levels[current] - levels[current - 1]
            if step <= residual + EPS and levels[current] * slot_hours <= d.deficit + EPS:
                modes[d] = current + 1
                residual -= step
                upgraded = True
    return modes, residual


def offer_move(dev, residuals, cfg, slot):
    """The move `mobility_decision` documents, as (Move, its total cost,
    its delay), or None."""
    if not dev.req.mobile:
        return None
    stay = deadline_loss(
        dev.progress,
        dev.req.demand_kwh,
        slot,
        dev.req.deadline_slot,
        dev.req.criticality,
        cfg.beta_max,
    )
    on_board = dev.req.initial_energy_kwh + dev.progress - dev.extra
    best = None
    for j, residual in enumerate(residuals):
        if j == dev.at or residual + EPS < dev.req.modes.levels_kw[0]:
            continue
        edge = cfg.movement[dev.at][j]
        if slot + edge.delay_slots > cfg.horizon_slots - 1:
            continue
        cost = edge.delay_slots * edge.cost_kwh_per_slot
        if cost <= on_board + EPS and (best is None or (cost, j) < best[:2]):
            best = (cost, j, edge.delay_slots)
    if best is None or stay <= best[0]:
        return None
    cost, target, delay = best
    return Move(dev.at, target), cost, delay


def reference_rows(cfg, requests, scheduler, mobility):
    """Each request's decision row under `scheduler` ("heuristic", "edf"
    or "hp"), with mobility offered or not."""
    key = RANK_KEYS[scheduler]
    devices = [Device(r) for r in requests]
    rows = {r.id: [IDLE] * cfg.horizon_slots for r in requests}
    for t in range(cfg.horizon_slots):
        present = [d for d in devices if d.free_from <= t]
        served = {}
        residuals = []
        for j in range(cfg.num_aggregators):
            cluster = [d for d in present if d.at == j and d.deficit > EPS]
            ranked = sorted(cluster, key=lambda d: key(d, t))
            modes, residual = serve_cluster(ranked, cfg.budgets_kw[j], cfg.slot_hours)
            served.update(modes)
            committed = cfg.budgets_kw[j] - residual
            residuals.append(max(cfg.budgets_kw[j] - committed, 0.0))
        for d in present:
            if d in served:
                mode = served[d]
                rows[d.req.id][t] = Serve(mode, d.at)
                delivered = d.req.modes.levels_kw[mode - 1] * cfg.slot_hours
                d.progress += min(delivered, d.deficit)
            elif mobility:
                offer = offer_move(d, residuals, cfg, t)
                if offer is not None:
                    move, cost, delay = offer
                    rows[d.req.id][t : t + delay] = [move] * delay
                    d.extra += cost
                    d.at = move.target
                    d.free_from = t + delay
    return rows

