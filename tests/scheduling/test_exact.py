"""Tests for the reference exact branch-and-bound scheduler (the
oracle ``test_bnb.py`` cross-checks the anytime search against)."""

import pytest
from hypothesis import given, settings, strategies as st

from exact_reference import exact_schedule
from repro.errors import InfeasibleError
from repro.graphs import hal
from repro.graphs.random_dags import random_layered_dag
from repro.ir.analysis import diameter
from repro.ir.builder import GraphBuilder
from repro.scheduling import (
    ListPriority,
    ResourceSet,
    list_schedule,
    validate_schedule,
)


class TestExactSmall:
    def test_chain_is_trivially_optimal(self):
        b = GraphBuilder()
        ids = [b.add(f"n{i}") for i in range(4)]
        b.chain(ids)
        g = b.graph()
        schedule = exact_schedule(g, ResourceSet.of(alu=1))
        assert schedule.length == 4

    def test_parallel_ops_on_one_unit_serialize(self):
        b = GraphBuilder()
        for i in range(3):
            b.add(f"n{i}")
        g = b.graph()
        schedule = exact_schedule(g, ResourceSet.of(alu=1))
        assert schedule.length == 3

    def test_hal_exact_matches_known_optimum(self, two_two):
        """HAL under 2 ALU + 2 MUL: 7 steps is optimal (CP-bound 6 is
        unreachable because the two multiply chains contend)."""
        schedule = exact_schedule(hal(), two_two)
        assert validate_schedule(schedule) == []
        assert schedule.length == 7

    def test_exact_never_worse_than_list(self, two_two):
        exact = exact_schedule(hal(), two_two)
        heuristic = list_schedule(hal(), two_two, ListPriority.READY_ORDER)
        assert exact.length <= heuristic.length

    def test_missing_unit_rejected(self):
        with pytest.raises(InfeasibleError):
            exact_schedule(hal(), ResourceSet.of(alu=1))

    def test_never_below_critical_path(self, two_two):
        assert exact_schedule(hal(), two_two).length >= diameter(hal())

    def test_bounds_count_from_the_current_step(self):
        """The BnB cross-check found this DAG: with its lower bounds
        counted from step 0, the search used up its node budget at 13
        steps, one above the optimum."""
        g = random_layered_dag(18, seed=4999)
        assert exact_schedule(g, ResourceSet.parse("1+/-,1*")).length == 12


class TestCompletion:
    """The oracle says whether its search finished: only a finished
    search makes its length an optimum."""

    def test_a_cap_below_the_search_reports_not_completed(self):
        capped = exact_schedule(
            hal(), ResourceSet.parse("2+/-,1*"), node_limit=10
        )
        assert capped.meta["completed"] is False
        # The capped answer is still a valid schedule (the incumbent).
        assert validate_schedule(capped, check_binding=False) == []

    def test_an_uncapped_search_completes(self):
        full = exact_schedule(
            hal(), ResourceSet.parse("2+/-,1*"), node_limit=None
        )
        assert full.meta == {"explored": 1_058, "completed": True}
        assert full.length == 13

    def test_a_cap_equal_to_the_search_still_completes(self):
        rs = ResourceSet.parse("2+/-,1*")
        assert exact_schedule(hal(), rs, node_limit=1_058).meta[
            "completed"
        ]
        assert not exact_schedule(hal(), rs, node_limit=1_057).meta[
            "completed"
        ]


class TestExactProperty:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(0, 2_000))
    def test_random_small_graphs_beat_or_match_list(self, size, seed):
        g = random_layered_dag(size, seed=seed)
        rs = ResourceSet.of(alu=1, mul=1)
        exact = exact_schedule(g, rs)
        heuristic = list_schedule(g, rs, ListPriority.SINK_DISTANCE)
        assert validate_schedule(exact, check_binding=False) == []
        assert exact.length <= heuristic.length
        assert exact.length >= diameter(g)
