"""Tests for threaded-state hardening."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ThreadedScheduler, threaded_schedule
from repro.errors import SchedulingError
from repro.graphs import hal
from repro.graphs.random_dags import random_layered_dag
from repro.scheduling import ResourceSet, validate_schedule


class TestHarden:
    def test_length_equals_diameter(self, two_two):
        scheduler = ThreadedScheduler(hal(), resources=two_two).run()
        schedule = scheduler.harden()
        assert schedule.length == scheduler.diameter

    def test_schedule_is_fully_valid(self, two_two):
        schedule = threaded_schedule(hal(), two_two)
        assert validate_schedule(schedule) == []

    def test_binding_maps_threads_to_units(self, two_two):
        scheduler = ThreadedScheduler(hal(), resources=two_two).run()
        schedule = scheduler.harden()
        state = scheduler.state
        for node_id, (fu_type, index) in schedule.binding.items():
            k = state.thread_of(node_id)
            assert state.specs[k].fu_type is fu_type

    def test_thread_order_is_time_order(self, two_two):
        scheduler = ThreadedScheduler(hal(), resources=two_two).run()
        schedule = scheduler.harden()
        state = scheduler.state
        for k in range(state.K):
            members = state.thread_members(k)
            for first, second in zip(members, members[1:]):
                assert (
                    schedule.start(second)
                    >= schedule.start(first) + state.dfg.delay(first)
                )

    def test_algorithm_tag_mentions_meta(self, two_two):
        scheduler = ThreadedScheduler(
            hal(), resources=two_two, meta="meta3"
        ).run()
        assert "meta_paths" in scheduler.harden().algorithm

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(0, 5_000))
    def test_random_graphs_harden_validly(self, size, seed):
        dfg = random_layered_dag(size, seed=seed)
        rs = ResourceSet.of(alu=2, mul=2)
        schedule = threaded_schedule(dfg, rs)
        assert validate_schedule(schedule) == []

    @pytest.mark.parametrize("meta", ["meta1", "meta2", "meta3", "meta4"])
    @pytest.mark.parametrize("seed", range(6))
    def test_weighted_edges_harden_validly(self, two_two, meta, seed):
        """A weighted DFG edge whose slot edge the state skipped or
        displaced as implied still delays its consumer by the weight."""
        dfg = random_layered_dag(30, seed=seed)
        rng = random.Random(seed)
        for edge in dfg.edges():
            edge.weight = rng.choice((0, 0, 1, 3))
        scheduler = ThreadedScheduler(dfg, resources=two_two, meta=meta)
        schedule = scheduler.run().harden(validate=True)
        assert validate_schedule(schedule) == []


class TestSchedulerDriver:
    def test_requires_exactly_one_of_resources_threads(self, two_two):
        with pytest.raises(SchedulingError):
            ThreadedScheduler(hal())
        with pytest.raises(SchedulingError):
            ThreadedScheduler(hal(), resources=two_two, threads=2)

    def test_missing_unit_type_rejected_up_front(self):
        with pytest.raises(SchedulingError):
            ThreadedScheduler(hal(), resources=ResourceSet.of(alu=2))

    def test_callable_meta_accepted(self, two_two):
        order = list(reversed(hal().topological_order()))
        scheduler = ThreadedScheduler(
            hal(), resources=two_two, meta=lambda dfg: order
        )
        scheduler.run()
        assert len(scheduler.state) == 11

    def test_incremental_api(self, two_two):
        scheduler = ThreadedScheduler(hal(), resources=two_two)
        scheduler.schedule_op("m1")
        scheduler.schedule_op("m2")
        assert len(scheduler.state) == 2
        scheduler.schedule_order(["m3", "m4"])
        assert len(scheduler.state) == 4
