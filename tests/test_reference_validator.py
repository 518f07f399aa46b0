"""`exact.validate_schedule` against the plain walk in
`reference_validator`, on drawn corruptions of engine schedules: every
rule's pass flag and witness must be the reference's, and a structural
fault must raise `ScheduleFormatError` in both, with the same message.

The schedules are the heuristic's and EDF's on `golden_light20`, on EV
replica seed 0 and on four micro-instances. Each drawn case applies one
to four corruptions to one of them:

- a Serve, Move or Idle cell with an in-range or out-of-range mode,
  aggregator or edge;
- a transit written whole, cut short, run over its delay or interrupted
  by another action, some running into the end of the horizon;
- a Serve or Move before the device's arrival;
- service at the top mode from some slot to the end of the row (past the
  demand, as soon as it is met), some with a transit inside it;
- every device, or every other one, served at its top mode at one
  aggregator in one slot (budget overload);
- at a low rate, a missing, extra, short or long row.
"""

from functools import lru_cache
from importlib import resources

from hypothesis import given, settings, strategies as st

from gridflex import engine, workload
from gridflex.exact import CONSTRAINT_ORDER, ScheduleFormatError, validate_schedule
from gridflex.model import IDLE, Move, Serve, load_scenario
from gridflex.workload import IngestSpec
from reference_validator import validate_schedule as reference_validate


@lru_cache(maxsize=None)
def bases():
    """(scenario, decisions) of each engine schedule the corruptions start from."""
    golden = load_scenario(str(resources.files("gridflex").joinpath("data", "golden_light20.json")))
    records, _ = workload.parse_sessions(workload.bundled_replica_text())
    ev, _ = workload.ingest_sessions(records, IngestSpec(seed=0))
    micro = workload.micro_instances(4, seed=0, max_devices=4, max_slots=8, max_aggregators=3)
    return [
        (scenario, engine.run(scenario, scheduler).decisions)
        for scenario in (golden, ev, *micro)
        for scheduler in ("heuristic", "edf")
    ]


def outcome(validate, decisions, scenario):
    """Each rule's (name, passed, witness), or the structural error's message."""
    try:
        report = validate(decisions, scenario.config, list(scenario.devices))
    except ScheduleFormatError as exc:
        return ("ScheduleFormatError", str(exc))
    return [(c.name, c.passed, c.witness) for c in (report.checks[n] for n in CONSTRAINT_ORDER)]


@st.composite
def corrupted(draw):
    scenario, clean = draw(st.sampled_from(bases()))
    cfg = scenario.config
    tau, n_agg = cfg.horizon_slots, cfg.num_aggregators
    devices = sorted(scenario.devices, key=lambda d: d.id)
    decisions = {dev_id: list(row) for dev_id, row in clean.items()}
    # aggregators and edges one past each end of the valid range
    aggregator = st.integers(-1, n_agg)
    slot = st.integers(0, tau - 1)

    def transit(row, origin, target, start):
        """Write a transit's Move cells from `start`, its delay long or one
        cell short or over, cut at the horizon; returns its cell span."""
        valid = 0 <= origin < n_agg and 0 <= target < n_agg and origin != target
        delay = cfg.movement[origin][target].delay_slots if valid else 1
        end = min(start + max(delay + draw(st.sampled_from([0, 0, -1, 1])), 1), tau)
        row[start:end] = [Move(origin, target)] * (end - start)
        return start, end

    def serve(dev):
        return st.builds(Serve, st.integers(-1, len(dev.modes_kw) + 1), aggregator)

    def action(dev):
        return st.one_of(st.just(IDLE), serve(dev), st.builds(Move, aggregator, aggregator))

    for _ in range(draw(st.integers(1, 4))):
        dev = draw(st.sampled_from(devices))
        row = decisions[dev.id]
        kind = draw(
            st.sampled_from(["cell", "transit", "transit", "early", "overserve", "overload"])
        )
        if kind == "cell":
            row[draw(slot)] = draw(action(dev))
        elif kind == "transit":
            origin = draw(st.one_of(st.just(dev.home), aggregator))
            target = draw(st.one_of(st.integers(0, n_agg - 1), aggregator))
            start, end = transit(row, origin, target, draw(slot))
            if end - start > 1 and draw(st.booleans()):
                # another action, or a move on from the target, mid-transit
                onward = st.builds(Move, st.just(target), aggregator)
                row[draw(st.integers(start + 1, end - 1))] = draw(
                    st.one_of(serve(dev), onward, action(dev))
                )
        elif kind == "early":
            if dev.arrival_slot > 0:
                row[draw(st.integers(0, min(dev.arrival_slot, tau) - 1))] = draw(
                    st.sampled_from([Serve(1, dev.home), Move(dev.home, (dev.home + 1) % n_agg)])
                )
        elif kind == "overserve":
            served = [t for t, a in enumerate(row) if type(a) is Serve]
            if served and draw(st.booleans()):
                # from the row's last Serve, which likely meets the demand
                start = served[-1]
            else:
                start = draw(st.integers(min(max(dev.arrival_slot, 0), tau - 1), tau - 1))
            row[start:] = [Serve(len(dev.modes_kw), dev.home)] * (tau - start)
            if n_agg > 1 and start + 1 < tau and draw(st.booleans()):
                # a transit's extra demand after service overshot the demand
                transit(row, dev.home, (dev.home + 1) % n_agg, start + 1)
        else:
            t, j = draw(slot), draw(st.integers(0, n_agg - 1))
            step = draw(st.sampled_from([1, 2]))
            for other in devices[draw(st.integers(0, step - 1)) :: step]:
                decisions[other.id][t] = Serve(len(other.modes_kw), j)

    # about one case in ten
    fault = draw(st.sampled_from([None] * 36 + ["missing", "extra", "short", "long"]))
    if fault is not None:
        dev_id = draw(st.sampled_from(sorted(decisions)))
        if fault == "missing":
            del decisions[dev_id]
        elif fault == "extra":
            decisions[dev_id + "~"] = [IDLE] * tau
        elif fault == "short":
            decisions[dev_id].pop()
        else:
            decisions[dev_id].append(IDLE)
    return scenario, decisions


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=corrupted())
def test_corrupted_schedules_match_reference(case):
    scenario, decisions = case
    assert outcome(validate_schedule, decisions, scenario) == outcome(
        reference_validate, decisions, scenario
    )


def test_engine_schedules_pass_both():
    for scenario, decisions in bases():
        report = outcome(validate_schedule, decisions, scenario)
        assert report == outcome(reference_validate, decisions, scenario)
        assert all(passed for _name, passed, _witness in report)
