"""The precedence graph of Definition 1.

A :class:`DataFlowGraph` is a directed acyclic graph ``G = <V, E, D>``
whose vertices are operations (each with an :class:`~repro.ir.ops.OpKind`
and an integer delay) and whose edges are data/precedence dependences.
Edges optionally carry

* a ``port`` — which operand slot of the consumer the value feeds (used by
  datapath binding and by the frontend; ``None`` when irrelevant), and
* a ``weight`` — extra delay *on the edge*, used by the physical-design
  back-annotation path to model interconnect latency without inserting
  explicit wire vertices.

The class is deliberately self-contained (no networkx dependency): the
scheduling core needs deterministic iteration order and cheap mutation,
and tests cross-validate the analyses against networkx separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import (
    CycleError,
    DuplicateNodeError,
    GraphError,
    UnknownNodeError,
)
from repro.ir.ops import DelayModel, OpKind

#: Largest node delay or edge weight a graph accepts, in control steps.
#: Far beyond any real schedule; it keeps a malformed graph from sending
#: a scheduler's step loop toward astronomically large steps.
MAX_STEPS = 1_000_000


def check_steps(what: str, value, error=GraphError) -> None:
    """Reject a step count that is not an int in ``[0, MAX_STEPS]``
    (``bool`` is not an int here, nor is a float like ``1.0``).

    Delays and weights raise :class:`GraphError`; job constraints
    (window bounds, io pins) pass their own ``error`` class.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    if not 0 <= value <= MAX_STEPS:
        raise error(f"{what} must be in [0, {MAX_STEPS}], got {value}")


@dataclass
class Node:
    """A single operation in a dataflow graph.

    In-place writes to ``op`` / ``delay`` notify the owning graph so its
    compiled :class:`~repro.ir.graph_view.GraphView` snapshot is rebuilt
    on next access (see :meth:`DataFlowGraph.view`).  ``delay`` must be
    an int in ``[0, MAX_STEPS]``, at construction and on every write.
    """

    id: str
    op: OpKind
    delay: int
    name: Optional[str] = None

    def __setattr__(self, name, value):
        if name == "delay":
            check_steps(f"delay of node {self.__dict__.get('id')!r}", value)
        object.__setattr__(self, name, value)
        if name in ("op", "delay"):
            owner = self.__dict__.get("_owner")
            if owner is not None:
                owner._bump()

    def label(self) -> str:
        """Human-readable label, e.g. ``"m1:*"``."""
        return f"{self.id}:{self.op.symbol}"

    def __repr__(self):
        return f"Node({self.id!r}, {self.op.name}, delay={self.delay})"


@dataclass
class Edge:
    """A directed dependence ``src -> dst``.

    In-place ``weight`` writes (the physical back-annotation path)
    notify the owning graph, like :class:`Node` attribute writes, and
    are checked like delays: an int in ``[0, MAX_STEPS]``.
    """

    src: str
    dst: str
    port: Optional[int] = None
    weight: int = 0

    def __setattr__(self, name, value):
        if name == "weight":
            check_steps(
                f"weight of edge {self.__dict__.get('src')!r} -> "
                f"{self.__dict__.get('dst')!r}",
                value,
            )
        object.__setattr__(self, name, value)
        if name == "weight":
            owner = self.__dict__.get("_owner")
            if owner is not None:
                owner._bump()

    def __repr__(self):
        extra = ""
        if self.port is not None:
            extra += f", port={self.port}"
        if self.weight:
            extra += f", weight={self.weight}"
        return f"Edge({self.src!r} -> {self.dst!r}{extra})"


class DataFlowGraph:
    """A mutable, deterministic DAG of operations.

    Iteration over nodes and edges always follows insertion order, so all
    algorithms built on top are reproducible.

    Parameters
    ----------
    name:
        Optional graph name (used in reports and DOT output).
    delay_model:
        Default delays for :meth:`add_node` calls that omit ``delay``.
        Defaults to :meth:`DelayModel.standard`.
    """

    def __init__(self, name: str = "", delay_model: Optional[DelayModel] = None):
        self.name = name
        self.delay_model = delay_model or DelayModel.standard()
        self._nodes: Dict[str, Node] = {}
        self._succs: Dict[str, Dict[str, Edge]] = {}
        self._preds: Dict[str, Dict[str, Edge]] = {}
        self._mutations = 0
        self._view = None

    # ------------------------------------------------------------------
    # Compiled view / cache invalidation.
    # ------------------------------------------------------------------

    def _bump(self) -> None:
        self._mutations += 1

    @property
    def mutation_count(self) -> int:
        """Monotonic mutation counter (snapshot tag for cached views)."""
        return self._mutations

    def touch(self) -> None:
        """Force cached views to rebuild on next access.

        Only needed after mutating graph structure through a back door
        the graph cannot observe; all :class:`DataFlowGraph` mutators
        and in-place ``Node.op`` / ``Node.delay`` / ``Edge.weight``
        writes already notify the cache.
        """
        self._bump()

    def view(self):
        """The compiled :class:`~repro.ir.graph_view.GraphView`.

        Built on first access and cached until the next mutation; all
        derived analyses (topological order, distances, ASAP/ALAP)
        share it, so repeated queries between mutations cost O(1)
        rebuild work.
        """
        from repro.ir.graph_view import GraphView

        view = self._view
        if view is None or view.version != self._mutations:
            view = GraphView(self)
            self._view = view
        return view

    # ------------------------------------------------------------------
    # Construction / mutation.
    # ------------------------------------------------------------------

    def add_node(
        self,
        node_id: str,
        op: OpKind,
        delay: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Node:
        """Add an operation and return its :class:`Node`.

        ``delay`` defaults to the graph's delay model value for ``op``;
        any other value than an int in ``[0, MAX_STEPS]`` raises
        :class:`GraphError`.
        """
        if not isinstance(node_id, str) or not node_id:
            raise GraphError(f"node id must be a non-empty string, got {node_id!r}")
        if node_id in self._nodes:
            raise DuplicateNodeError(node_id)
        if not isinstance(op, OpKind):
            raise GraphError(f"op must be an OpKind, got {op!r}")
        if delay is None:
            delay = self.delay_model[op]
        node = Node(id=node_id, op=op, delay=delay, name=name)
        node.__dict__["_owner"] = self
        self._nodes[node_id] = node
        self._succs[node_id] = {}
        self._preds[node_id] = {}
        self._bump()
        return node

    def add_edge(
        self,
        src: str,
        dst: str,
        port: Optional[int] = None,
        weight: int = 0,
    ) -> Edge:
        """Add a dependence edge ``src -> dst``.

        Re-adding an existing edge updates its port/weight in place rather
        than raising, which keeps refinement code simple.  ``weight``
        must be an int in ``[0, MAX_STEPS]`` (else :class:`GraphError`).
        """
        self._require(src)
        self._require(dst)
        if src == dst:
            raise GraphError(f"self-loop on {src!r} is not allowed")
        check_steps(f"weight of edge {src!r} -> {dst!r}", weight)
        existing = self._succs[src].get(dst)
        if existing is not None:
            existing.port = port
            existing.weight = weight
            return existing
        edge = Edge(src=src, dst=dst, port=port, weight=weight)
        edge.__dict__["_owner"] = self
        self._succs[src][dst] = edge
        self._preds[dst][src] = edge
        self._bump()
        return edge

    def remove_edge(self, src: str, dst: str) -> Edge:
        self._require(src)
        self._require(dst)
        try:
            edge = self._succs[src].pop(dst)
        except KeyError:
            raise GraphError(f"no edge {src!r} -> {dst!r}") from None
        del self._preds[dst][src]
        self._bump()
        return edge

    def remove_node(self, node_id: str) -> Node:
        """Remove a node and all incident edges."""
        node = self.node(node_id)
        for succ in list(self._succs[node_id]):
            self.remove_edge(node_id, succ)
        for pred in list(self._preds[node_id]):
            self.remove_edge(pred, node_id)
        del self._succs[node_id]
        del self._preds[node_id]
        del self._nodes[node_id]
        self._bump()
        return node

    def splice_on_edge(
        self,
        src: str,
        dst: str,
        node_id: str,
        op: OpKind,
        delay: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Node:
        """Replace edge ``src -> dst`` with ``src -> new -> dst``.

        This is the graph-level primitive behind wire-delay insertion
        (paper Figure 1(d)): the new vertex inherits the consumer port of
        the replaced edge on its outgoing side.
        """
        edge = self.edge(src, dst)
        port, weight = edge.port, edge.weight
        self.remove_edge(src, dst)
        node = self.add_node(node_id, op, delay=delay, name=name)
        self.add_edge(src, node_id, weight=weight)
        self.add_edge(node_id, dst, port=port)
        return node

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def _require(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(succs) for succs in self._succs.values())

    def node(self, node_id: str) -> Node:
        self._require(node_id)
        return self._nodes[node_id]

    def nodes(self) -> List[str]:
        return list(self._nodes)

    def node_objects(self) -> List[Node]:
        return list(self._nodes.values())

    def edge(self, src: str, dst: str) -> Edge:
        self._require(src)
        self._require(dst)
        try:
            return self._succs[src][dst]
        except KeyError:
            raise GraphError(f"no edge {src!r} -> {dst!r}") from None

    def has_edge(self, src: str, dst: str) -> bool:
        return src in self._succs and dst in self._succs[src]

    def edges(self) -> List[Edge]:
        return [edge for succs in self._succs.values() for edge in succs.values()]

    def successors(self, node_id: str) -> List[str]:
        self._require(node_id)
        return list(self._succs[node_id])

    def predecessors(self, node_id: str) -> List[str]:
        self._require(node_id)
        return list(self._preds[node_id])

    def out_edges(self, node_id: str) -> List[Edge]:
        self._require(node_id)
        return list(self._succs[node_id].values())

    def in_edges(self, node_id: str) -> List[Edge]:
        self._require(node_id)
        return list(self._preds[node_id].values())

    def in_degree(self, node_id: str) -> int:
        self._require(node_id)
        return len(self._preds[node_id])

    def out_degree(self, node_id: str) -> int:
        self._require(node_id)
        return len(self._succs[node_id])

    def sources(self) -> List[str]:
        """Primary inputs: vertices without predecessors."""
        return [n for n in self._nodes if not self._preds[n]]

    def sinks(self) -> List[str]:
        """Primary outputs: vertices without successors."""
        return [n for n in self._nodes if not self._succs[n]]

    def delay(self, node_id: str) -> int:
        return self.node(node_id).delay

    def total_delay(self) -> int:
        """Sum of all node delays (a lower bound for 1-FU schedules)."""
        return sum(node.delay for node in self._nodes.values())

    def op_histogram(self) -> Dict[OpKind, int]:
        histogram: Dict[OpKind, int] = {}
        for node in self._nodes.values():
            histogram[node.op] = histogram.get(node.op, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # Order / structure.
    # ------------------------------------------------------------------

    def topological_order(self) -> List[str]:
        """Kahn's algorithm with deterministic (insertion-order) tie-break.

        Served from the compiled :meth:`view` (cached between
        mutations).  Raises :class:`CycleError` if the graph has a
        cycle.
        """
        return self.view().topological_ids()

    def is_dag(self) -> bool:
        try:
            self.topological_order()
        except CycleError:
            return False
        return True

    def find_cycle(self) -> Optional[List[str]]:
        """Return one cycle as a node list, or ``None`` if acyclic."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in self._nodes}
        parent: Dict[str, Optional[str]] = {}

        for root in self._nodes:
            if color[root] != WHITE:
                continue
            stack: List[Tuple[str, Iterator[str]]] = [
                (root, iter(self._succs[root]))
            ]
            color[root] = GRAY
            parent[root] = None
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if color[succ] == WHITE:
                        color[succ] = GRAY
                        parent[succ] = node
                        stack.append((succ, iter(self._succs[succ])))
                        advanced = True
                        break
                    if color[succ] == GRAY:
                        # Found a back edge: reconstruct the cycle.
                        cycle = [succ, node]
                        cursor = parent[node]
                        while cursor is not None and cursor != succ:
                            cycle.append(cursor)
                            cursor = parent[cursor]
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    def reachable_from(self, node_id: str) -> List[str]:
        """All vertices reachable from ``node_id`` (excluding itself)."""
        self._require(node_id)
        seen = {node_id}
        frontier = [node_id]
        order: List[str] = []
        while frontier:
            current = frontier.pop()
            for succ in self._succs[current]:
                if succ not in seen:
                    seen.add(succ)
                    order.append(succ)
                    frontier.append(succ)
        return order

    def reaching_to(self, node_id: str) -> List[str]:
        """All vertices from which ``node_id`` is reachable (excl. itself)."""
        self._require(node_id)
        seen = {node_id}
        frontier = [node_id]
        order: List[str] = []
        while frontier:
            current = frontier.pop()
            for pred in self._preds[current]:
                if pred not in seen:
                    seen.add(pred)
                    order.append(pred)
                    frontier.append(pred)
        return order

    # ------------------------------------------------------------------
    # Conversion / copying.
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "DataFlowGraph":
        clone = DataFlowGraph(
            name=self.name if name is None else name,
            delay_model=self.delay_model,
        )
        for node in self._nodes.values():
            clone.add_node(node.id, node.op, delay=node.delay, name=node.name)
        for edge in self.edges():
            clone.add_edge(edge.src, edge.dst, port=edge.port, weight=edge.weight)
        return clone

    def subgraph(self, node_ids: Iterable[str]) -> "DataFlowGraph":
        """Induced subgraph on ``node_ids`` (order preserved)."""
        keep = [n for n in self._nodes if n in set(node_ids)]
        sub = DataFlowGraph(name=f"{self.name}.sub", delay_model=self.delay_model)
        for node_id in keep:
            node = self._nodes[node_id]
            sub.add_node(node.id, node.op, delay=node.delay, name=node.name)
        keep_set = set(keep)
        for edge in self.edges():
            if edge.src in keep_set and edge.dst in keep_set:
                sub.add_edge(edge.src, edge.dst, port=edge.port, weight=edge.weight)
        return sub

    def to_networkx(self):
        """Export to a ``networkx.DiGraph`` (node/edge attrs preserved)."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for node in self._nodes.values():
            graph.add_node(
                node.id, op=node.op, delay=node.delay, name=node.name
            )
        for edge in self.edges():
            graph.add_edge(edge.src, edge.dst, port=edge.port, weight=edge.weight)
        return graph

    @classmethod
    def from_networkx(cls, graph, name: str = "", delay_model=None):
        """Build from a ``networkx.DiGraph`` with ``op``/``delay`` attrs.

        Missing ``op`` defaults to :attr:`OpKind.NOP`; missing ``delay``
        falls back to the delay model.
        """
        dfg = cls(name=name or graph.name or "", delay_model=delay_model)
        for node_id, data in graph.nodes(data=True):
            dfg.add_node(
                str(node_id),
                data.get("op", OpKind.NOP),
                delay=data.get("delay"),
                name=data.get("name"),
            )
        for src, dst, data in graph.edges(data=True):
            dfg.add_edge(
                str(src),
                str(dst),
                port=data.get("port"),
                weight=data.get("weight", 0),
            )
        return dfg

    def __repr__(self):
        label = self.name or "dfg"
        return (
            f"DataFlowGraph({label!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
