"""Tests for the resource-constrained list scheduler (the baseline)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InfeasibleError
from repro.graphs import get_graph, hal
from repro.graphs.random_dags import random_layered_dag
from repro.ir.analysis import diameter
from repro.ir.dfg import DataFlowGraph
from repro.ir.ops import OpKind
from repro.scheduling import (
    ListPriority,
    ResourceSet,
    list_schedule,
    validate_schedule,
)

#: The paper's Figure 3 "list sched" rows (our primary calibration).
PAPER_LIST_ROWS = {
    "HAL": (8, 6, 13),
    "AR": (19, 11, 34),
    "EF": (19, 17, 24),
    "FIR": (11, 7, 19),
}


class TestPaperBaseline:
    @pytest.mark.parametrize("bench_name", sorted(PAPER_LIST_ROWS))
    def test_figure3_list_row(self, bench_name, paper_constraints):
        expected = PAPER_LIST_ROWS[bench_name]
        got = tuple(
            list_schedule(
                get_graph(bench_name), rs, ListPriority.READY_ORDER
            ).length
            for rs in paper_constraints
        )
        assert got == expected

    @pytest.mark.parametrize("bench_name", sorted(PAPER_LIST_ROWS))
    def test_schedules_are_valid(self, bench_name, paper_constraints):
        for rs in paper_constraints:
            schedule = list_schedule(
                get_graph(bench_name), rs, ListPriority.READY_ORDER
            )
            assert validate_schedule(schedule) == []


class TestGeneralBehaviour:
    def test_length_never_below_critical_path(self, two_two):
        g = hal()
        assert list_schedule(g, two_two).length >= diameter(g)

    def test_unconstrained_reaches_critical_path(self):
        g = hal()
        generous = ResourceSet.of(alu=10, mul=10)
        assert list_schedule(g, generous).length == diameter(g)

    def test_priorities_all_produce_valid_schedules(self, two_two):
        for priority in ListPriority:
            schedule = list_schedule(hal(), two_two, priority)
            assert validate_schedule(schedule) == []

    def test_missing_unit_type_raises(self):
        with pytest.raises(InfeasibleError):
            list_schedule(hal(), ResourceSet.of(alu=2))

    def test_binding_produced_for_all_ops(self, two_two):
        schedule = list_schedule(hal(), two_two)
        assert set(schedule.binding) == set(hal().nodes())

    def test_structural_ops_scheduled_without_units(self, two_two):
        g = hal()
        g.splice_on_edge("m1", "m3", "w1", __import__(
            "repro.ir.ops", fromlist=["OpKind"]
        ).OpKind.WIRE, delay=1)
        schedule = list_schedule(g, two_two)
        assert "w1" in schedule.start_times
        assert "w1" not in schedule.binding
        assert validate_schedule(schedule) == []

    def test_heavy_edge_weight_is_not_infeasible(self):
        # The step guard once ignored edge weights, so an edge heavier
        # than every delay, edge and node counted together raised.
        g = DataFlowGraph()
        g.add_node("a", OpKind.ADD)
        g.add_node("b", OpKind.ADD)
        g.add_edge("a", "b", weight=8)
        for priority in ListPriority:
            schedule = list_schedule(g, ResourceSet.parse("1+/-"), priority)
            assert schedule.start_times == {"a": 0, "b": 9}

    def test_single_unit_serializes(self):
        g = hal()
        one = ResourceSet.of(alu=1, mul=1)
        schedule = list_schedule(g, one)
        # Six 2-cycle muls on one unit: at least 12 steps.
        assert schedule.length >= 12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=60), st.integers(0, 5_000))
    def test_random_graphs_valid_under_tight_resources(self, size, seed):
        g = random_layered_dag(size, seed=seed)
        rs = ResourceSet.of(alu=1, mul=1)
        schedule = list_schedule(g, rs, ListPriority.SINK_DISTANCE)
        assert validate_schedule(schedule) == []
        assert len(schedule.start_times) == size

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=5, max_value=50), st.integers(0, 5_000))
    def test_more_resources_never_hurt(self, size, seed):
        g = random_layered_dag(size, seed=seed)
        tight = list_schedule(g, ResourceSet.of(alu=1, mul=1)).length
        loose = list_schedule(g, ResourceSet.of(alu=4, mul=4)).length
        assert loose <= tight
