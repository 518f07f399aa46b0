"""Priority score, the heuristic's ranking tie-breaks, and the total
order of every ranking function."""

import pytest
from hypothesis import given, strategies as st

from gridflex.baselines import edf_rank, hp_rank
from gridflex.heuristic import heuristic_rank
from gridflex.model import DeviceRequest, DeviceState
from gridflex.priority import priority


class TestPriorityValue:
    def test_full_deficit_at_deadline(self):
        assert priority(0.0, 10.0, 6, 6) == pytest.approx(1.0)

    def test_half_deficit_five_slots_early(self):
        assert priority(5.0, 10.0, 1, 6) == pytest.approx(0.1)

    def test_half_deficit_four_slots_late(self):
        assert priority(5.0, 10.0, 10, 6) == pytest.approx(2.0)

    def test_at_deadline_equals_deficit_ratio(self):
        assert priority(3.0, 10.0, 6, 6) == pytest.approx(0.7)

    @given(
        demand=st.floats(1.0, 100.0),
        served_frac=st.floats(0.0, 0.99),
        gap=st.integers(1, 20),
    )
    def test_deficit_monotonicity(self, demand, served_frac, gap):
        progress = demand * served_frac
        tighter = priority(progress, demand, 10, 10 + gap)
        looser = priority(min(progress + demand * 0.005, demand), demand, 10, 10 + gap)
        assert tighter >= looser

    @given(deficit=st.floats(0.1, 1.0), gap=st.integers(2, 30))
    def test_urgency_grows_as_deadline_nears(self, deficit, gap):
        far = priority(0.0, deficit, 0, gap)
        near = priority(0.0, deficit, 0, gap - 1)
        assert near > far

    @given(deficit=st.floats(0.1, 1.0), late=st.integers(1, 30))
    def test_urgency_grows_with_lateness(self, deficit, late):
        a = priority(0.0, deficit, 10 + late, 10)
        b = priority(0.0, deficit, 10 + late + 1, 10)
        assert b > a


SLOT = 10


def state(dev_id, progress=0.0, deadline=SLOT, kappa=1.6, min_mode=1.0):
    """A 10 kWh request ranked at `SLOT`: at its deadline the score is the
    deficit ratio, each slot of lateness multiplies it."""
    request = DeviceRequest(
        id=dev_id,
        arrival_slot=0,
        deadline_slot=deadline,
        mobile=False,
        initial_energy_kwh=0.0,
        demand_kwh=10.0,
        criticality=kappa,
        modes_kw=(min_mode, 5.0),
        home=0,
    )
    st = DeviceState(request=request, aggregator=0)
    st.progress_kwh = progress
    return st


def ranked_ids(states, rank_fn=heuristic_rank):
    return [d.request.id for d in rank_fn(states, SLOT)]


class TestRank:
    def test_single_entry(self):
        states = [state("a", progress=5.0)]
        assert heuristic_rank(states, SLOT) == states

    def test_descending_by_value(self):
        # scores 2.0 (two slots late), 0.1 and 1.0
        states = [state("a", deadline=SLOT - 2), state("b", progress=9.0), state("c")]
        assert ranked_ids(states) == ["a", "c", "b"]

    def test_tie_broken_by_criticality(self):
        states = [state("a", kappa=1.6), state("b", kappa=2.0)]
        assert ranked_ids(states) == ["b", "a"]

    def test_tie_broken_by_min_mode_then_id(self):
        states = [
            state("b", kappa=1.6, min_mode=2.0),
            state("a", kappa=1.6, min_mode=1.0),
            state("c", kappa=1.6, min_mode=1.0),
        ]
        assert ranked_ids(states) == ["a", "c", "b"]

    # the horizon loop's clusters may hold their members in any order, so
    # every ranking function must be a total order
    @pytest.mark.parametrize(
        "rank_fn", [heuristic_rank, edf_rank, hp_rank], ids=lambda f: f.__name__
    )
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 5.0, 9.0]),
                st.sampled_from([SLOT - 2, SLOT, SLOT + 2]),
                st.sampled_from([1.6, 1.8, 2.0]),
                st.sampled_from([1.0, 2.0, 3.0]),
            ),
            max_size=30,
        ),
        st.randoms(),
    )
    def test_order_independent_of_input_permutation(self, rank_fn, raw, rnd):
        states = [
            state(f"d{i:02d}", progress, deadline, kappa, mode)
            for i, (progress, deadline, kappa, mode) in enumerate(raw)
        ]
        shuffled = states[:]
        rnd.shuffle(shuffled)
        assert ranked_ids(states, rank_fn) == ranked_ids(shuffled, rank_fn)
