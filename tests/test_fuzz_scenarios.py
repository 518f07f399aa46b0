"""Property fuzz over scenario documents: every input has exactly one outcome.

Each document is built as JSON-level data and sent through JSON text, so
NaN and +/-Infinity arrive the way a file on disk delivers them, in
integer fields as well as float fields. Decoding, `validate_config` and
`engine.run` for every scheduler must end in exactly one of:

- a `ScenarioFormatError` from decoding;
- a non-empty violation list from `validate_config`;
- for each scheduler, a result whose schedule passes
  `exact.validate_schedule` and whose `total_loss` is finite.

Anything else (another exception, an infeasible schedule, a NaN or
infinite loss) fails the test. A share of the fields is replaced by a
wild value: any float in a float field; NaN, +/-Infinity, a boolean, a
small float (mostly fractional) or a small integer in an integer field;
a string, number or null in `mobile`; and a number, boolean or null in
an `id`. Integers stay small so every run is short.
"""

import json
import math

from hypothesis import given, settings, strategies as st

from gridflex import engine, exact
from gridflex.model import ScenarioFormatError, scenario_from_dict, validate_config

SCHEDULERS = ("heuristic", "edf", "hp")

WILD_INT = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.floats(-3.0, 40.0),
    st.integers(-3, 40),
)
WILD_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
WILD_FLAG = st.one_of(
    st.sampled_from(["true", "false", None]), st.integers(0, 1), st.floats(0.0, 1.0)
)
WILD_ID = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(-3.0, 40.0))


@st.composite
def scenario_docs(draw):
    # share of numeric fields replaced by a wild value, in percent
    wild_rate = draw(st.sampled_from([0, 5, 30]))

    def wild(rate):
        return rate and draw(st.integers(0, 99)) < rate

    def number(tame, integral=False):
        if wild(wild_rate):
            return draw(WILD_INT if integral else WILD_FLOAT)
        return draw(tame)

    # a fifth of the rate: one wild flag or id rejects the whole document,
    # and at the full rate few documents would be left to run
    def flag():
        return draw(WILD_FLAG) if wild(wild_rate // 5) else draw(st.booleans())

    def text(tame):
        return draw(WILD_ID) if wild(wild_rate // 5) else tame

    n = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 10))
    pairs = [
        {
            "from": number(st.just(i), integral=True),
            "to": number(st.just(j), integral=True),
            "delay_slots": number(st.integers(1, 3), integral=True),
            "cost_kwh_per_slot": number(st.floats(0.0, 0.5)),
        }
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    devices = []
    for k in range(draw(st.integers(0, 4))):
        arrival = draw(st.integers(0, horizon - 1))
        modes = draw(st.lists(st.floats(0.5, 6.0), min_size=1, max_size=3, unique=True))
        devices.append(
            {
                "id": text(f"d{k}"),
                "arrival_slot": number(st.just(arrival), integral=True),
                "deadline_slot": number(st.integers(arrival + 1, horizon), integral=True),
                "mobile": flag(),
                "initial_energy_kwh": number(st.floats(0.0, 2.0)),
                "demand_kwh": number(st.floats(0.01, 6.0)),
                # 1000 puts every late slot at the beta_max clamp
                "criticality": number(st.one_of(st.floats(0.5, 3.0), st.just(1000.0))),
                "modes_kw": [number(st.just(m)) for m in sorted(modes)],
                "home": number(st.integers(0, n - 1), integral=True),
            }
        )
    doc = {
        "schema_version": 1,
        "id": text("fuzz"),
        "config": {
            "num_aggregators": number(st.just(n), integral=True),
            "budgets_kw": [number(st.floats(0.5, 8.0)) for _ in range(n)],
            "horizon_slots": number(st.just(horizon), integral=True),
            "slot_hours": number(st.sampled_from([0.25, 0.5, 1.0])),
            "beta_max": number(st.sampled_from([1e3, 1e9, 1e308])),
            "movement": {
                "num_aggregators": number(st.just(n), integral=True),
                "pairs": pairs,
            },
        },
        "devices": devices,
    }
    return json.loads(json.dumps(doc))


def outcome(doc) -> str:
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioFormatError:
        return "format error"
    if validate_config(scenario.config, scenario.devices):
        return "violations"
    for scheduler in SCHEDULERS:
        result = engine.run(scenario, scheduler)
        report = exact.validate_schedule(
            result.decisions, scenario.config, list(scenario.devices)
        )
        assert report.all_pass, (scheduler, report.summary())
        assert math.isfinite(result.total_loss), (scheduler, result.total_loss)
    return "ran"


def test_every_document_has_exactly_one_outcome():
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(scenario_docs())
    def check(doc):
        seen.add(outcome(doc))

    check()
    # the fuzz proves little if one outcome swallows every document
    assert seen == {"format error", "violations", "ran"}
