"""Unit tests for the DataFlowGraph container."""

import pytest

from repro.errors import (
    CycleError,
    DuplicateNodeError,
    GraphError,
    UnknownNodeError,
)
from repro.ir.dfg import MAX_STEPS, DataFlowGraph
from repro.ir.ops import DelayModel, OpKind


def diamond():
    """a -> b, a -> c, b -> d, c -> d."""
    g = DataFlowGraph("diamond")
    for name in "abcd":
        g.add_node(name, OpKind.ADD)
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    g.add_edge("b", "d", port=0)
    g.add_edge("c", "d", port=1)
    return g


#: Delays and weights that are not an int in [0, MAX_STEPS].
BAD_STEPS = [1.5, float("nan"), True, False, "2", None, -1, MAX_STEPS + 1,
             10**30]


class TestStepValues:
    """Node delays and edge weights are ints in ``[0, MAX_STEPS]``,
    checked on construction and on every in-place write."""

    @pytest.mark.parametrize("delay", [v for v in BAD_STEPS if v is not None])
    def test_bad_delay_rejected(self, delay):
        g = DataFlowGraph()
        with pytest.raises(GraphError):
            g.add_node("x", OpKind.ADD, delay=delay)
        assert "x" not in g

    @pytest.mark.parametrize("weight", BAD_STEPS)
    def test_bad_weight_rejected(self, weight):
        g = diamond()
        with pytest.raises(GraphError):
            g.add_edge("a", "d", weight=weight)
        assert not g.has_edge("a", "d")

    @pytest.mark.parametrize("value", BAD_STEPS)
    def test_bad_in_place_writes_rejected(self, value):
        g = diamond()
        node, edge = g.node("b"), g.edge("a", "b")
        with pytest.raises(GraphError):
            node.delay = value
        with pytest.raises(GraphError):
            edge.weight = value
        assert (node.delay, edge.weight) == (1, 0)

    def test_readding_an_edge_with_a_bad_weight_leaves_it_intact(self):
        g = diamond()
        with pytest.raises(GraphError):
            g.add_edge("b", "d", port=7, weight=1.5)
        assert (g.edge("b", "d").port, g.edge("b", "d").weight) == (0, 0)

    def test_bounds_accepted(self):
        g = DataFlowGraph()
        g.add_node("a", OpKind.ADD, delay=0)
        g.add_node("b", OpKind.ADD, delay=MAX_STEPS)
        assert g.add_edge("a", "b", weight=MAX_STEPS).weight == MAX_STEPS


class TestConstruction:
    def test_add_node_defaults_delay_from_model(self):
        g = DataFlowGraph(delay_model=DelayModel.standard())
        assert g.add_node("m", OpKind.MUL).delay == 2
        assert g.add_node("a", OpKind.ADD).delay == 1

    def test_add_node_explicit_delay(self):
        g = DataFlowGraph()
        assert g.add_node("m", OpKind.MUL, delay=5).delay == 5

    def test_duplicate_node_rejected(self):
        g = DataFlowGraph()
        g.add_node("x", OpKind.ADD)
        with pytest.raises(DuplicateNodeError):
            g.add_node("x", OpKind.MUL)

    def test_bad_node_id_rejected(self):
        g = DataFlowGraph()
        with pytest.raises(GraphError):
            g.add_node("", OpKind.ADD)
        with pytest.raises(GraphError):
            g.add_node(42, OpKind.ADD)

    def test_bad_op_rejected(self):
        g = DataFlowGraph()
        with pytest.raises(GraphError):
            g.add_node("x", "add")

    def test_negative_delay_rejected(self):
        g = DataFlowGraph()
        with pytest.raises(GraphError):
            g.add_node("x", OpKind.ADD, delay=-1)

    def test_self_loop_rejected(self):
        g = DataFlowGraph()
        g.add_node("x", OpKind.ADD)
        with pytest.raises(GraphError):
            g.add_edge("x", "x")

    def test_edge_to_unknown_node_rejected(self):
        g = DataFlowGraph()
        g.add_node("x", OpKind.ADD)
        with pytest.raises(UnknownNodeError):
            g.add_edge("x", "ghost")

    def test_readding_edge_updates_attributes(self):
        g = diamond()
        g.add_edge("a", "b", port=3, weight=2)
        edge = g.edge("a", "b")
        assert edge.port == 3 and edge.weight == 2
        assert g.num_edges == 4  # no duplicate


class TestQueries:
    def test_membership_and_len(self):
        g = diamond()
        assert "a" in g and "ghost" not in g
        assert len(g) == 4
        assert g.num_edges == 4

    def test_neighbours(self):
        g = diamond()
        assert g.successors("a") == ["b", "c"]
        assert g.predecessors("d") == ["b", "c"]
        assert g.in_degree("d") == 2
        assert g.out_degree("a") == 2

    def test_sources_and_sinks(self):
        g = diamond()
        assert g.sources() == ["a"]
        assert g.sinks() == ["d"]

    def test_total_delay_and_histogram(self):
        g = diamond()
        assert g.total_delay() == 4
        assert g.op_histogram() == {OpKind.ADD: 4}

    def test_reachability(self):
        g = diamond()
        assert set(g.reachable_from("a")) == {"b", "c", "d"}
        assert set(g.reaching_to("d")) == {"a", "b", "c"}
        assert g.reachable_from("d") == []


class TestOrder:
    def test_topological_order_valid(self):
        g = diamond()
        order = g.topological_order()
        position = {n: i for i, n in enumerate(order)}
        for edge in g.edges():
            assert position[edge.src] < position[edge.dst]

    def test_cycle_detected(self):
        g = diamond()
        g.add_edge("d", "a")
        assert not g.is_dag()
        with pytest.raises(CycleError):
            g.topological_order()
        cycle = g.find_cycle()
        assert cycle is not None
        assert len(cycle) >= 2

    def test_acyclic_has_no_cycle(self):
        assert diamond().find_cycle() is None


class TestMutation:
    def test_remove_edge(self):
        g = diamond()
        g.remove_edge("a", "b")
        assert not g.has_edge("a", "b")
        assert g.num_edges == 3
        with pytest.raises(GraphError):
            g.remove_edge("a", "b")

    def test_remove_node_detaches_edges(self):
        g = diamond()
        g.remove_node("b")
        assert "b" not in g
        assert g.successors("a") == ["c"]
        assert g.predecessors("d") == ["c"]

    def test_splice_on_edge(self):
        g = diamond()
        g.splice_on_edge("b", "d", "w", OpKind.WIRE, delay=1)
        assert not g.has_edge("b", "d")
        assert g.has_edge("b", "w") and g.has_edge("w", "d")
        # The spliced vertex inherits the consumer port.
        assert g.edge("w", "d").port == 0

    def test_copy_is_independent(self):
        g = diamond()
        clone = g.copy()
        clone.remove_node("a")
        assert "a" in g
        assert g.num_edges == 4

    def test_subgraph(self):
        g = diamond()
        sub = g.subgraph(["a", "b", "d"])
        assert set(sub.nodes()) == {"a", "b", "d"}
        assert sub.has_edge("a", "b") and sub.has_edge("b", "d")
        assert not sub.has_edge("a", "d")


class TestNetworkxRoundtrip:
    def test_roundtrip_preserves_structure(self):
        g = diamond()
        nx_graph = g.to_networkx()
        back = DataFlowGraph.from_networkx(nx_graph, name="back")
        assert set(back.nodes()) == set(g.nodes())
        assert {(e.src, e.dst) for e in back.edges()} == {
            (e.src, e.dst) for e in g.edges()
        }
        assert back.node("a").op is OpKind.ADD
        assert back.edge("b", "d").port == 0

    def test_matches_networkx_topology_checks(self):
        import networkx as nx

        g = diamond()
        assert nx.is_directed_acyclic_graph(g.to_networkx())
