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
small float (mostly fractional), a small integer or +/-10**400 (beyond
float range) in an integer field; a string, number or null in `mobile`;
and a number, boolean or null in an `id`. A document that runs has only
small integers, since a huge one breaks a rule, so every run is short.
At a low rate one object of the document gains a key the schema does
not name, and the document must end as a format error.
"""

import json
import math

from hypothesis import given, settings, strategies as st

import pytest

from gridflex import engine, exact
from gridflex.model import (
    DeviceRequest,
    Scenario,
    ScenarioFormatError,
    SystemConfig,
    line_movement,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_config,
)

SCHEDULERS = ("heuristic", "edf", "hp")

WILD_INT = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.floats(-3.0, 40.0),
    st.integers(-3, 40),
    st.sampled_from([10**400, -(10**400)]),
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
    extra_key = draw(st.integers(0, 99)) < 5
    if extra_key:
        objects = [doc, doc["config"], doc["config"]["movement"], *pairs, *devices]
        draw(st.sampled_from(objects))["note"] = 0
    return json.loads(json.dumps(doc)), extra_key


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
    def check(case):
        doc, extra_key = case
        result = outcome(doc)
        assert result == "format error" or not extra_key, result
        seen.add(result)

    check()
    # the fuzz proves little if one outcome swallows every document
    assert seen == {"format error", "violations", "ran"}


# a small valid scenario: two aggregators, one mobile device
SMALL = Scenario(
    "small",
    SystemConfig(2, (4.0, 4.0), 4, 0.5, line_movement(2)),
    (DeviceRequest("d0", 0, 2, True, 0.5, 1.0, 1.6, (1.0, 2.0), 1),),
)

INTEGER_FIELDS = [
    ("schema_version",),
    ("config", "num_aggregators"),
    ("config", "horizon_slots"),
    ("config", "movement", "num_aggregators"),
    ("config", "movement", "pairs", 0, "from"),
    ("config", "movement", "pairs", 0, "to"),
    ("config", "movement", "pairs", 0, "delay_slots"),
    ("devices", 0, "arrival_slot"),
    ("devices", 0, "deadline_slot"),
    ("devices", 0, "home"),
]


@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["huge", "negative-huge"])
@pytest.mark.parametrize("path", INTEGER_FIELDS, ids=lambda path: ".".join(map(str, path)))
def test_huge_integer_has_one_outcome(path, value):
    # WILD_INT's +/-10**400 seldom lands in an otherwise valid document;
    # here each integer field of one holds it. A window cap or worst-case
    # bound formed from a huge arrival, deadline or horizon overflowed.
    doc = scenario_to_dict(SMALL)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    assert outcome(doc) in ("format error", "violations")


# one key of each object: the document, its config, movement, a pair, a device
@pytest.mark.parametrize(
    "key", ["schema_version", "horizon_slots", "pairs", "delay_slots", "home"]
)
def test_repeated_key_is_malformed(key, tmp_path):
    # JSON text may name a key twice, which no dict holds: the first value
    # was dropped unread, so `"horizon_slots": 3, "horizon_slots": 5` ran at 5
    path = tmp_path / "small.json"
    save_scenario(SMALL, path)
    assert load_scenario(path) == SMALL
    text = path.read_text()
    assert f'"{key}": ' in text
    path.write_text(text.replace(f'"{key}": ', f'"{key}": 0, "{key}": ', 1))
    with pytest.raises(ScenarioFormatError, match=f"^repeated key '{key}'$"):
        load_scenario(path)
