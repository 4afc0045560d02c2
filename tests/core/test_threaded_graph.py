"""Unit tests for the ThreadedGraph online scheduler (Algorithm 1)."""

import pytest

from repro.errors import (
    NoValidPositionError,
    ThreadedGraphError,
    UnknownNodeError,
)
from repro.core import check_against_graph, check_state
from repro.core.scheduler import ThreadedScheduler
from repro.core.threaded_graph import ThreadedGraph, ThreadSpec
from repro.graphs import hal, paper_fig1
from repro.graphs.random_dags import random_layered_dag
from repro.ir.ops import OpKind
from repro.scheduling.resources import ALU, ResourceSet


class TestConstruction:
    def test_universal_threads_from_int(self):
        state = ThreadedGraph(hal(), 3)
        assert state.K == 3
        assert all(spec.fu_type is None for spec in state.specs)

    def test_from_resources_one_thread_per_unit(self, two_two):
        state = ThreadedGraph.from_resources(hal(), two_two)
        assert state.K == 4
        types = [spec.fu_type.name for spec in state.specs]
        assert types == ["alu", "alu", "mul", "mul"]

    def test_zero_threads_rejected(self):
        with pytest.raises(ThreadedGraphError):
            ThreadedGraph(hal(), 0)
        with pytest.raises(ThreadedGraphError):
            ThreadedGraph(hal(), [])

    def test_initial_state_empty(self):
        state = ThreadedGraph(hal(), 2)
        assert len(state) == 0
        assert state.diameter() == 0
        assert state.scheduled_ids() == []


class TestScheduling:
    def test_schedule_one_op(self):
        state = ThreadedGraph(hal(), 2)
        state.schedule("m1")
        assert "m1" in state
        assert state.diameter() == 2
        assert state.thread_of("m1") in (0, 1)

    def test_idempotent_per_definition_3(self):
        """v in V_S  ->  F(v, S) = S (the incremental condition)."""
        state = ThreadedGraph(hal(), 2)
        state.schedule("m1")
        before_edges = state.state_edges()
        before_diam = state.diameter()
        state.schedule("m1")
        assert state.state_edges() == before_edges
        assert state.diameter() == before_diam
        assert len(state) == 1

    def test_schedule_all_covers_graph(self):
        g = hal()
        state = ThreadedGraph(g, 2)
        state.schedule_all()
        assert len(state) == g.num_nodes

    def test_unknown_op_rejected(self):
        state = ThreadedGraph(hal(), 2)
        with pytest.raises(UnknownNodeError):
            state.schedule("ghost")

    def test_diameter_monotonic_lemma4(self):
        """Lemma 4: ||S|| <= ||F(v, S)||."""
        g = hal()
        state = ThreadedGraph(g, 2)
        last = 0
        for node_id in g.topological_order():
            state.schedule(node_id)
            now = state.diameter()
            assert now >= last
            last = now

    def test_typed_threads_reject_incompatible(self):
        g = hal()
        state = ThreadedGraph(
            g, [ThreadSpec(fu_type=ALU, label="alu0")]
        )
        with pytest.raises(NoValidPositionError):
            state.schedule("m1")  # a multiply, only an ALU thread

    def test_typed_threads_place_compatible(self, two_two):
        g = hal()
        state = ThreadedGraph.from_resources(g, two_two)
        state.schedule_all(g.topological_order())
        for k, spec in enumerate(state.specs):
            for node_id in state.thread_members(k):
                assert spec.fu_type.supports(g.node(node_id).op)

    def test_state_consistency_after_full_run(self, two_two):
        g = hal()
        state = ThreadedGraph.from_resources(g, two_two)
        state.schedule_all(g.topological_order())
        assert check_state(state) == []
        assert check_against_graph(state) == []

    def test_single_thread_serializes_everything(self):
        g = hal()
        state = ThreadedGraph(g, 1)
        state.schedule_all(g.topological_order())
        assert state.diameter() == g.total_delay()


class TestArtificialEdges:
    def test_fig1_artificial_edge_exists(self):
        """The paper points at edge 2->5 in Figure 1(e) as artificial."""
        g = paper_fig1()
        state = ThreadedGraph(g, 2)
        state.schedule_all(g.topological_order())
        artificial = state.artificial_edges()
        # Some serialization edge must exist (7 ops on 2 units, CP 5).
        assert artificial
        from repro.ir.analysis import transitive_closure

        closure = transitive_closure(g)
        for src, dst in artificial:
            assert dst not in closure[src]

    def test_state_edges_within_scheduled_set(self):
        g = hal()
        state = ThreadedGraph(g, 2)
        for node_id in list(g.topological_order())[:5]:
            state.schedule(node_id)
        scheduled = set(state.scheduled_ids())
        for src, dst in state.state_edges():
            assert src in scheduled and dst in scheduled


class TestFreeVertices:
    def test_wire_scheduled_as_free(self):
        g = hal()
        g.splice_on_edge("m1", "m3", "w", OpKind.WIRE, delay=1)
        state = ThreadedGraph(g, 2)
        state.schedule_all(g.topological_order())
        assert state.thread_of("w") is None
        assert "w" in state.free_ids()
        assert check_state(state) == []
        assert check_against_graph(state) == []

    def test_wire_lengthens_paths(self):
        g = hal()
        g.splice_on_edge("m3", "s1", "w", OpKind.WIRE, delay=1)
        state = ThreadedGraph(g, 8)  # effectively unconstrained
        state.schedule_all(g.topological_order())
        assert state.diameter() == 7  # 6 + 1 wire on the critical path


class TestStats:
    def test_counters_populated(self):
        g = hal()
        state = ThreadedGraph(g, 2)
        state.schedule_all(g.topological_order())
        assert state.stats.scheduled == g.num_nodes
        assert state.stats.positions_scanned > 0
        assert state.stats.label_visits > 0
        assert state.stats.total_work() > 0

    def test_work_gate_on_800_ops(self):
        """Deterministic work of the paper's kernel at 800 ops.

        The label, position and rewiring counts are the ones the
        BFS-window kernel made on this input (the windows change no
        decision); the windows themselves cost 270,386 BFS visits
        there, and the chain cover must stay an order of magnitude
        below that.
        """
        dfg = random_layered_dag(800, seed=1)
        scheduler = ThreadedScheduler(
            dfg, resources=ResourceSet.parse("2+/-,2*"), meta="meta2"
        ).run()
        scheduler.state.label()
        stats = scheduler.state.stats
        assert stats.window_visits <= 27_000
        assert (
            stats.label_visits,
            stats.positions_scanned,
            stats.edges_rewired,
        ) == (119_757, 27_014, 2_141)
