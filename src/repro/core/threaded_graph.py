"""Algorithm 1: the threaded-graph online scheduler.

The scheduling state is a precedence graph whose vertices are partitioned
into K *threads* (Definition 4) — one per functional unit — with a total
order inside each thread and a partial order across threads.  Scheduling
one operation is three steps (paper Section 4.2):

``label``
    Source/sink distance labels for every state vertex.  An insertion
    changes them only in the new vertex's forward and backward cones
    (Lemmas 5/6), so only the vertices whose edges changed are
    relabelled, forward and backward through a worklist that stops
    where a value holds.  A full topological sweep runs first, after a
    removal and after any DFG mutation.  Each visit costs O(K) because
    the threaded structure bounds vertex degree by K (Lemma 7).
``select``
    The operation's *intrinsic* source (sink) distance is the maximum
    labelled distance over its already-scheduled DFG ancestors
    (descendants).  Every insertion position in every compatible thread
    is then costed in O(1):
    ``cost = max(prev.sdist, intrinsic_src) + max(next.tdist,
    intrinsic_snk) + delay(v)`` — which equals the distance the new
    vertex would have, and therefore (Lemmas 5/6) the new diameter is
    ``max(old diameter, cost)``.  The minimum-cost *valid* position wins.
``commit``
    The vertex is linked into the chosen thread, and one edge per thread
    is (re)wired to its scheduled DFG ancestors/descendants using the
    local rewrite rules of the paper's Figure 2 — keeping at most one
    in-edge and one out-edge per thread per vertex.

Insertion validity
------------------
The paper's ``select`` checks only the two position-adjacent vertices
against the DFG order.  That local test is sound only when no farther
thread member is ordered against the new operation; the general sound
condition (docs/ARCHITECTURE.md, "The threaded kernel") is a *window*
per thread: the position must lie after every state-ancestor of the
operation's scheduled DFG predecessors and before every
state-descendant of its scheduled DFG successors.

The threads are a chain cover of the state, so those sets never need a
search.  Every vertex keeps two K-vectors (see
:class:`~repro.core.vertex.ThreadedVertex`): ``before[k]``, the latest
thread-k vertex that reaches it (itself included), and ``after[k]``,
the earliest thread-k vertex it reaches.  A window bound is then a rank
max (min) over the vectors of the op's scheduled DFG ancestors
(descendants); the latest ancestor per thread dominates the rest of its
thread, so only those and the free ancestors are read.  The vectors
stay exact under insertion: the Figure 2 rules only add edges through
the new vertex x or drop edges another path implies, so every newly
reachable pair runs through x.  Commit therefore folds ``x.before``
into x's state descendants and ``x.after`` into its ancestors,
stopping wherever a fold changes nothing (that vertex's own cone
already holds the values).  A removal can shrink reachability, so
:meth:`ThreadedGraph.remove` only marks the vectors stale; the next
window query rebuilds them in one topological pass.
Windows are never empty (an ancestor after a descendant inside one
thread would close a state cycle), so every compatible thread offers a
valid position.

Structural operations (wire delays, constants) never occupy a unit;
they are held as *free* vertices: part of the precedence state and the
distance labels, but in no thread.

Edge storage convention (mirrors the paper's ``in[K]``/``out[K]``):
an edge ``u -> w`` lives in ``u.tout[w.thread]`` when ``w`` is threaded
(else in ``u.free_out``) and in ``w.tin[u.thread]`` when ``u`` is
threaded (else in ``w.free_in``).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import (
    NoValidPositionError,
    ThreadedGraphError,
    UnknownNodeError,
)
from repro.ir.dfg import DataFlowGraph
from repro.ir.ops import OpKind
from repro.core.vertex import ThreadedVertex
from repro.scheduling.resources import FuType, ResourceSet


@dataclass(frozen=True)
class ThreadSpec:
    """One thread = one functional unit.

    ``fu_type`` restricts which operations the thread accepts
    (``None`` = universal, the paper's simplifying assumption).
    """

    fu_type: Optional[FuType] = None
    label: str = ""

    def supports(self, op: OpKind) -> bool:
        return self.fu_type is None or self.fu_type.supports(op)


@dataclass
class SchedulerStats:
    """Operation counters used by the complexity experiment (Theorem 3)."""

    scheduled: int = 0
    label_visits: int = 0
    positions_scanned: int = 0
    #: Vertices whose chain-cover vectors were folded or rebuilt.
    window_visits: int = 0
    edges_rewired: int = 0

    def total_work(self) -> int:
        return (
            self.label_visits
            + self.positions_scanned
            + self.window_visits
            + self.edges_rewired
        )


#: An op's scheduled DFG ancestors (descendants) as the state needs
#: them: the latest (earliest) one per thread, and every free one.
Relatives = Tuple[Dict[int, ThreadedVertex], List[ThreadedVertex]]
#: Both sides of one op's DFG walk: ``(ancestors, descendants)``.
Walk = Tuple[Relatives, Relatives]


def _members(relatives: Relatives) -> List[ThreadedVertex]:
    extreme, free = relatives
    return list(extreme.values()) + free


class ThreadedGraph:
    """The scheduling state of a threaded schedule (Definition 4).

    Parameters
    ----------
    dfg:
        The precedence graph being scheduled.  It may grow *during*
        scheduling (spill code, wire delays) — that is the point of soft
        scheduling.
    threads:
        Either an int (K universal threads) or a sequence of
        :class:`ThreadSpec`.  Use :meth:`from_resources` to build one
        thread per functional unit of a :class:`ResourceSet`.
    """

    def __init__(
        self,
        dfg: DataFlowGraph,
        threads: Union[int, Sequence[ThreadSpec]],
    ):
        if isinstance(threads, int):
            if threads <= 0:
                raise ThreadedGraphError(
                    f"need at least one thread, got {threads}"
                )
            specs: List[ThreadSpec] = [
                ThreadSpec(label=f"u{i}") for i in range(threads)
            ]
        else:
            specs = list(threads)
            if not specs:
                raise ThreadedGraphError("need at least one thread")
        self.dfg = dfg
        self.specs = specs
        self.K = len(specs)
        self.stats = SchedulerStats()

        self._threads: List[List[ThreadedVertex]] = [[] for _ in specs]
        self._rank: Dict[ThreadedVertex, int] = {}
        self._vertices: Dict[str, ThreadedVertex] = {}
        self._free: Dict[str, ThreadedVertex] = {}
        self._order: List[str] = []
        # Labelling state (see label()): the DFG version the labels were
        # last fully swept at (None forces a sweep), the vertices whose
        # in-/out-edges changed since, and the weighted DFG edges.
        self._label_version: Optional[int] = None
        self._changed_in: List[ThreadedVertex] = []
        self._changed_out: List[ThreadedVertex] = []
        self._weights_version: Optional[int] = None
        self._weighted_in: Dict[str, Dict[str, int]] = {}
        self._weighted_out: Dict[str, Dict[str, int]] = {}
        # Chain-cover vectors are exact unless a removal left them stale.
        self._cover_stale = False

        self._s: List[ThreadedVertex] = []
        self._t: List[ThreadedVertex] = []
        for k in range(self.K):
            source = ThreadedVertex(
                f"<s{k}>", None, 0, self.K, thread=k, is_sentinel=True
            )
            sink = ThreadedVertex(
                f"<t{k}>", None, 0, self.K, thread=k, is_sentinel=True
            )
            source.tout[k] = sink
            sink.tin[k] = source
            self._s.append(source)
            self._t.append(sink)

    @classmethod
    def from_resources(
        cls, dfg: DataFlowGraph, resources: ResourceSet
    ) -> "ThreadedGraph":
        """One thread per concrete functional unit of ``resources``."""
        specs = [
            ThreadSpec(fu_type=fu_type, label=f"{fu_type.name}{index}")
            for fu_type, index in resources.instances()
        ]
        return cls(dfg, specs)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def scheduled_ids(self) -> List[str]:
        """Scheduled operation ids in scheduling order."""
        return list(self._order)

    def vertex(self, node_id: str) -> ThreadedVertex:
        vertex = self._vertices.get(node_id)
        if vertex is None:
            raise UnknownNodeError(node_id)
        return vertex

    def thread_of(self, node_id: str) -> Optional[int]:
        """Thread index of a scheduled op (None for free vertices)."""
        return self.vertex(node_id).thread

    def thread_members(self, k: int) -> List[str]:
        """Ids in thread ``k``, in thread order."""
        return [v.node_id for v in self._threads[k]]

    def free_ids(self) -> List[str]:
        return list(self._free)

    def vertices(self) -> List[ThreadedVertex]:
        """All scheduled vertices (no sentinels), scheduling order."""
        return [self._vertices[node_id] for node_id in self._order]

    def state_edges(self) -> List[Tuple[str, str]]:
        """All state edges among scheduled vertices (no sentinels)."""
        edges: List[Tuple[str, str]] = []
        for vertex in self.vertices():
            for succ in vertex.successors():
                if not succ.is_sentinel:
                    edges.append((vertex.node_id, succ.node_id))
        return edges

    def artificial_edges(self) -> List[Tuple[str, str]]:
        """State edges not implied by the DFG partial order.

        These are the serialization decisions the scheduler has made
        (e.g. the ``2 -> 5`` edge of the paper's Figure 1(e)).
        """
        from repro.ir.analysis import transitive_closure

        closure = transitive_closure(self.dfg)
        artificial = []
        for src, dst in self.state_edges():
            implied = (
                src in closure and dst in closure.get(src, frozenset())
            )
            if not implied:
                artificial.append((src, dst))
        return artificial

    def diameter(self) -> int:
        """Critical-path length of the state (the paper's ``||G||``)."""
        self.label()
        best = 0
        for vertex in self._vertices.values():
            best = max(best, vertex.sdist + vertex.tdist - vertex.delay)
        return best

    # ------------------------------------------------------------------
    # Labeling (forwardLabel / backwardLabel of Algorithm 1).
    # ------------------------------------------------------------------

    def label(self, force: bool = False) -> None:
        """Bring ``sdist``/``tdist`` of every state vertex up to date.

        Incremental by default: only the labels an insertion can change
        are recomputed (see :meth:`_relabel`).  ``force=True`` runs the
        full topological sweep instead; the sweep also runs on the first
        call, after :meth:`remove`, and whenever the DFG has mutated
        since the last sweep (wire splices, weight back-annotation, phi
        resolution).
        """
        version = self.dfg.mutation_count
        if force or self._label_version != version:
            self._refresh_weights(version)
            self._sweep()
            self._label_version = version
        else:
            self._relabel(self._changed_in, forward=True)
            self._relabel(self._changed_out, forward=False)
        self._changed_in.clear()
        self._changed_out.clear()

    def _sweep(self) -> None:
        """Full relabel: one forward and one backward topological pass.

        Sentinel labels stay 0: sources have no predecessors, sinks no
        successors, and no caller reads the other two.
        """
        order = [
            v for v in self._topological_state_order() if not v.is_sentinel
        ]
        for vertex in order:
            vertex.sdist = self._source_distance(vertex)
        for vertex in reversed(order):
            vertex.tdist = self._sink_distance(vertex)
        self.stats.label_visits += 2 * len(order)

    def _relabel(self, seeds: List[ThreadedVertex], forward: bool) -> None:
        """Worklist relabel from the vertices whose in-edges (forward)
        or out-edges (backward) changed since the last label.

        A vertex is re-evaluated from its current neighbours, and its
        own neighbours are queued only when its value changed, so every
        equation with a changed input is re-evaluated and the pass ends
        on the same unique longest-path labels as :meth:`_sweep`.  The
        queue order only saves re-evaluations: forward by the labels
        before this update (a topological order of every edge the
        insertion left in place; new vertices start at 0, so first),
        backward by descending ``sdist``, which is final by then.
        """
        if forward:
            name, evaluate = "sdist", self._source_distance
            slots, free, weighted = "tout", "free_out", self._weighted_out
        else:
            name, evaluate = "tdist", self._sink_distance
            slots, free, weighted = "tin", "free_in", self._weighted_in
        heap: List[Tuple[int, int, ThreadedVertex]] = []
        queued: Set[ThreadedVertex] = set()
        tick = itertools.count()  # FIFO among equal keys; never compares vertices

        def push(vertices: Iterable[Optional[ThreadedVertex]]) -> None:
            for other in vertices:
                if (
                    other is not None
                    and other not in queued
                    and not other.is_sentinel
                ):
                    queued.add(other)
                    key = other.sdist if forward else -other.sdist
                    heapq.heappush(heap, (key, next(tick), other))

        push(seeds)
        visits = 0
        while heap:
            vertex = heapq.heappop(heap)[2]
            queued.discard(vertex)
            visits += 1
            value = evaluate(vertex)
            if value != getattr(vertex, name):
                setattr(vertex, name, value)
                push(getattr(vertex, slots))
                free_edges = getattr(vertex, free)
                if free_edges:
                    push(free_edges)
                if weighted:
                    heavy = self._weighted(vertex.node_id, weighted)
                    push(other for other, _ in heavy)
        self.stats.label_visits += visits

    # The label recurrence.  State edges carry no weight; a weighted DFG
    # edge between two scheduled ops adds its weight on top of the path
    # the state already orders them by.  The state may route that order
    # through a different (implied) slot edge, so the weight is read
    # from the DFG edge itself, never from the slot edge.

    def _source_distance(self, vertex: ThreadedVertex) -> int:
        best = 0
        for pred in vertex.tin:
            if pred is not None and pred.sdist > best:
                best = pred.sdist
        for pred in vertex.free_in:
            if pred.sdist > best:
                best = pred.sdist
        if self._weighted_in:
            weighted = self._weighted(vertex.node_id, self._weighted_in)
            for pred, weight in weighted:
                best = max(best, pred.sdist + weight)
        return best + vertex.delay

    def _sink_distance(self, vertex: ThreadedVertex) -> int:
        best = 0
        for succ in vertex.tout:
            if succ is not None and succ.tdist > best:
                best = succ.tdist
        for succ in vertex.free_out:
            if succ.tdist > best:
                best = succ.tdist
        if self._weighted_out:
            weighted = self._weighted(vertex.node_id, self._weighted_out)
            for succ, weight in weighted:
                best = max(best, succ.tdist + weight)
        return best + vertex.delay

    def _weighted(
        self,
        node_id: str,
        table: Dict[str, Dict[str, int]],
    ) -> List[Tuple[ThreadedVertex, int]]:
        """Scheduled DFG neighbours of ``node_id`` joined to it by a
        weighted edge, with the weights (``table`` picks the side)."""
        neighbours = table.get(node_id)
        if not neighbours:
            return []
        scheduled = self._vertices
        return [
            (scheduled[other], weight)
            for other, weight in neighbours.items()
            if other in scheduled
        ]

    def _refresh_weights(self, version: int) -> None:
        """Rebuild the weighted-edge tables when the DFG has moved."""
        if self._weights_version == version:
            return
        weighted_in: Dict[str, Dict[str, int]] = {}
        weighted_out: Dict[str, Dict[str, int]] = {}
        for edge in self.dfg.edges():
            if edge.weight:
                weighted_in.setdefault(edge.dst, {})[edge.src] = edge.weight
                weighted_out.setdefault(edge.src, {})[edge.dst] = edge.weight
        self._weighted_in, self._weighted_out = weighted_in, weighted_out
        self._weights_version = version

    def _topological_state_order(self) -> List[ThreadedVertex]:
        everything: List[ThreadedVertex] = list(self._s) + list(self._t)
        everything.extend(self._vertices.values())
        in_deg = {v: v.in_degree() for v in everything}
        ready = [v for v in everything if in_deg[v] == 0]
        order: List[ThreadedVertex] = []
        head = 0
        while head < len(ready):
            vertex = ready[head]
            head += 1
            order.append(vertex)
            for succ in vertex.successors():
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(everything):
            raise ThreadedGraphError(
                "scheduling state contains a cycle (internal invariant "
                "violation)"
            )
        return order

    # ------------------------------------------------------------------
    # The schedule() entry point (Definition 3's online schedule F).
    # ------------------------------------------------------------------

    def schedule(self, node_id: str) -> None:
        """Schedule one operation (no-op if already scheduled)."""
        if node_id in self._vertices:
            return
        node = self.dfg.node(node_id)
        self.stats.scheduled += 1
        walk = self._walk(node_id)

        if node.op.is_structural:
            self._commit_free(node_id, node, walk)
            return

        thread_k, rank = self._select(node_id, node, walk)
        self._commit(node_id, node, thread_k, rank, walk)

    def schedule_all(self, order: Optional[Iterable[str]] = None) -> None:
        """Schedule every DFG operation (default: graph order)."""
        for node_id in (order if order is not None else self.dfg.nodes()):
            self.schedule(node_id)

    # ------------------------------------------------------------------
    # The op's scheduled DFG relatives (paper lines 53-54).
    # ------------------------------------------------------------------

    def _walk(self, node_id: str) -> Walk:
        """The scheduled DFG ancestors and descendants of ``node_id``,
        from one walk each way; select and commit both read them."""
        return (
            self._relatives(self.dfg.reaching_to(node_id), latest=True),
            self._relatives(self.dfg.reachable_from(node_id), latest=False),
        )

    def _relatives(self, node_ids: List[str], latest: bool) -> Relatives:
        """The scheduled ops among ``node_ids``: the latest (``latest``)
        or earliest member per thread, keyed in first-seen thread order,
        and every free one in walk order.

        Every other scheduled op of a thread reaches its latest member
        (is reached from its earliest) along the thread chain, so these
        few vertices stand for the whole set wherever the state orders
        or labels are monotone: windows, intrinsics and wiring.
        """
        extreme: Dict[int, ThreadedVertex] = {}
        free: List[ThreadedVertex] = []
        vertices, rank = self._vertices, self._rank
        for node_id in node_ids:
            vertex = vertices.get(node_id)
            if vertex is None:
                continue
            k = vertex.thread
            if k is None:
                free.append(vertex)
                continue
            current = extreme.get(k)
            if current is None or (
                rank[vertex] > rank[current]
                if latest
                else rank[vertex] < rank[current]
            ):
                extreme[k] = vertex
        return extreme, free

    # ------------------------------------------------------------------
    # select: find the best insertion position.
    # ------------------------------------------------------------------

    @staticmethod
    def position_key(cost: int, k: int, rank: int) -> Tuple[int, int, int]:
        """Order of the candidate positions; the minimum wins.

        Minimum cost, then lowest thread index, then the *latest*
        position in that thread (appending keeps the earlier slack free
        for later refinements; empirically this also tracks the paper's
        reported lengths most closely — measured by
        repro.experiments.tiebreak_ablation, which overrides this hook;
        see docs/ARCHITECTURE.md, "The threaded kernel").
        """
        return (cost, k, -rank)

    def _select(self, node_id: str, node, walk: Walk) -> Tuple[int, int]:
        """Return ``(thread, rank)``: insert after the vertex at ``rank``
        (rank -1 = right after the source sentinel)."""
        self.label()
        intrinsic_src, intrinsic_snk = self._intrinsics(node_id, walk)
        lo, hi = self._windows(walk)

        compatible = [
            k for k, spec in enumerate(self.specs) if spec.supports(node.op)
        ]
        if not compatible:
            raise NoValidPositionError(
                f"no thread accepts {node_id} ({node.op.name}); "
                f"threads: {[spec.fu_type and spec.fu_type.name for spec in self.specs]}"
            )

        key = self.position_key
        best: Optional[Tuple] = None
        chosen: Optional[Tuple[int, int]] = None
        for k in compatible:
            chain = self._threads[k]
            for rank in range(lo[k], hi[k]):
                prev_sdist = chain[rank].sdist if rank >= 0 else 0
                next_tdist = (
                    chain[rank + 1].tdist if rank + 1 < len(chain) else 0
                )
                cost = (
                    max(prev_sdist, intrinsic_src)
                    + max(next_tdist, intrinsic_snk)
                    + node.delay
                )
                self.stats.positions_scanned += 1
                candidate = key(cost, k, rank)
                if best is None or candidate < best:
                    best = candidate
                    chosen = (k, rank)
        if chosen is None:
            raise NoValidPositionError(
                f"no acyclic insertion position for {node_id} "
                "(inconsistent scheduling state)"
            )
        return chosen

    def _intrinsics(self, node_id: str, walk: Walk) -> Tuple[int, int]:
        """Intrinsic source/sink distances: the largest ``sdist`` over
        the scheduled DFG ancestors (``tdist`` over the descendants),
        plus the weight of a weighted edge to a direct neighbour.

        Labels grow along state paths, so the per-thread extremes and
        the free relatives carry the maximum.
        """
        ancestors, descendants = walk
        intrinsic_src = max(
            (v.sdist for v in _members(ancestors)), default=0
        )
        for anc, weight in self._weighted(node_id, self._weighted_in):
            intrinsic_src = max(intrinsic_src, anc.sdist + weight)
        intrinsic_snk = max(
            (v.tdist for v in _members(descendants)), default=0
        )
        for desc, weight in self._weighted(node_id, self._weighted_out):
            intrinsic_snk = max(intrinsic_snk, desc.tdist + weight)
        return intrinsic_src, intrinsic_snk

    def _windows(self, walk: Walk) -> Tuple[List[int], List[int]]:
        """Valid insertion window per thread.

        Returns ``(lo, hi)``: in thread ``k`` the new vertex may be
        inserted after ranks ``lo[k] .. hi[k] - 1`` (unconstrained:
        lo = -1, hi = len(chain)).  ``lo[k]`` is the rank of the last
        thread-k vertex that must stay before the new op (a
        state-ancestor of a scheduled DFG predecessor, read off the
        ancestors' ``before`` vectors); ``hi[k]`` the rank of the first
        that must stay after (off the descendants' ``after`` vectors).
        """
        if self._cover_stale:
            self._rebuild_cover()
        ancestors, descendants = walk
        rank = self._rank
        lo = [-1] * self.K
        for vertex in _members(ancestors):
            for k, member in enumerate(vertex.before):
                if member is not None and rank[member] > lo[k]:
                    lo[k] = rank[member]
        hi = [len(chain) for chain in self._threads]
        for vertex in _members(descendants):
            for k, member in enumerate(vertex.after):
                if member is not None and rank[member] < hi[k]:
                    hi[k] = rank[member]
        return lo, hi

    # ------------------------------------------------------------------
    # The chain cover behind the windows.
    # ------------------------------------------------------------------

    def _cover_row(
        self, vertex: ThreadedVertex, forward: bool
    ) -> List[Optional[ThreadedVertex]]:
        """``vertex.before`` (forward) or ``vertex.after`` recomputed
        from its state predecessors (successors)."""
        row: List[Optional[ThreadedVertex]] = [None] * self.K
        if forward:
            for pred in vertex.predecessors():
                if not pred.is_sentinel:
                    self._fold(row, pred.before, later=True)
        else:
            for succ in vertex.successors():
                if not succ.is_sentinel:
                    self._fold(row, succ.after, later=False)
        if vertex.thread is not None:
            row[vertex.thread] = vertex
        return row

    def _fold(
        self,
        row: List[Optional[ThreadedVertex]],
        other: List[Optional[ThreadedVertex]],
        later: bool,
    ) -> bool:
        """Merge ``other`` into ``row`` entry-wise, keeping the later
        (``later``) or earlier member of each thread; True if ``row``
        changed."""
        rank = self._rank
        changed = False
        for k, member in enumerate(other):
            if member is None:
                continue
            current = row[k]
            if current is None or (
                rank[member] > rank[current]
                if later
                else rank[member] < rank[current]
            ):
                row[k] = member
                changed = True
        return changed

    def _cover_insert(self, vertex: ThreadedVertex) -> None:
        """Fold a freshly wired vertex into the chain cover.

        Its own rows come from its neighbours; then ``before`` spreads
        to its state descendants and ``after`` to its ancestors.  A
        vertex whose row the fold leaves unchanged already dominates
        it, and so does its whole cone, so the walk stops there.
        """
        if self._cover_stale:
            return  # the next window query rebuilds everything
        vertex.before = self._cover_row(vertex, forward=True)
        vertex.after = self._cover_row(vertex, forward=False)
        visits = 0
        frontier = vertex.successors()
        while frontier:
            other = frontier.pop()
            if not other.is_sentinel:
                visits += 1
                if self._fold(other.before, vertex.before, later=True):
                    frontier.extend(other.successors())
        frontier = vertex.predecessors()
        while frontier:
            other = frontier.pop()
            if not other.is_sentinel:
                visits += 1
                if self._fold(other.after, vertex.after, later=False):
                    frontier.extend(other.predecessors())
        self.stats.window_visits += visits

    def _rebuild_cover(self) -> None:
        """Recompute every chain-cover row: one topological pass each
        way (after a removal shrank reachability)."""
        order = [
            v for v in self._topological_state_order() if not v.is_sentinel
        ]
        for vertex in order:
            vertex.before = self._cover_row(vertex, forward=True)
        for vertex in reversed(order):
            vertex.after = self._cover_row(vertex, forward=False)
        self.stats.window_visits += 2 * len(order)
        self._cover_stale = False

    # ------------------------------------------------------------------
    # commit: insert and rewire (paper Figure 2 rules).
    # ------------------------------------------------------------------

    def _commit(
        self, node_id: str, node, k: int, rank: int, walk: Walk
    ) -> None:
        vertex = ThreadedVertex(
            node_id, node.op, node.delay, self.K, thread=k
        )
        chain = self._threads[k]
        prev = chain[rank] if rank >= 0 else self._s[k]
        nxt = chain[rank + 1] if rank + 1 < len(chain) else self._t[k]

        # Link into the thread (paper lines 26-27).
        prev.tout[k] = vertex
        vertex.tin[k] = prev
        vertex.tout[k] = nxt
        nxt.tin[k] = vertex
        chain.insert(rank + 1, vertex)
        self._reindex(k)
        self._changed_out.append(prev)
        self._changed_in.append(nxt)

        self._vertices[node_id] = vertex
        self._order.append(node_id)
        self._note_new(vertex)

        self._wire(vertex, walk)

    # The free-edge containers are insertion-ordered dicts (see
    # ThreadedVertex), so everything above iterates deterministically.

    def _commit_free(self, node_id: str, node, walk: Walk) -> None:
        """Insert a structural op as a thread-less free vertex."""
        vertex = ThreadedVertex(node_id, node.op, node.delay, self.K)
        self._vertices[node_id] = vertex
        self._free[node_id] = vertex
        self._order.append(node_id)
        self._note_new(vertex)
        self._wire(vertex, walk)

    def _note_new(self, vertex: ThreadedVertex) -> None:
        """Record a new vertex and its weighted DFG neighbours for the
        next incremental relabel (its slot edges record themselves).

        The weight table is stale only after a DFG mutation, and then
        the next label is a full sweep that ignores these records.
        """
        self._changed_in.append(vertex)
        self._changed_out.append(vertex)
        self._changed_in.extend(
            v for v, _ in self._weighted(vertex.node_id, self._weighted_out)
        )
        self._changed_out.extend(
            v for v, _ in self._weighted(vertex.node_id, self._weighted_in)
        )

    def _wire(self, vertex: ThreadedVertex, walk: Walk) -> None:
        """Add/rewire one edge per other thread from the latest scheduled
        DFG ancestor and to the earliest descendant, plus one per free
        relative; the own thread is covered by the chain (the validity
        window).  Then fold the vertex into the chain cover."""
        own = vertex.thread
        (latest, free_preds), (earliest, free_succs) = walk
        for k, anc in latest.items():
            if k != own:
                self._add_edge(anc, vertex)
        for anc in free_preds:
            self._add_edge(anc, vertex)
        for k, desc in earliest.items():
            if k != own:
                self._add_edge(vertex, desc)
        for desc in free_succs:
            self._add_edge(vertex, desc)
        self._cover_insert(vertex)

    def _add_edge(self, src: ThreadedVertex, dst: ThreadedVertex) -> None:
        """Record precedence ``src -> dst`` with Figure 2's slot rules.

        The edge is skipped when an existing slot edge already implies
        it (Figure 2 (a)/(d)) and replaces an existing slot edge it
        subsumes (Figure 2 (c)/(f)); otherwise it is simply added
        (Figure 2 (b)/(e)).
        """
        self.stats.edges_rewired += 1
        # Implication checks first — they must not mutate anything.
        if dst.thread is not None:
            occupant = src.tout[dst.thread]
            if occupant is not None and (
                occupant is dst or self._precedes_in_thread(occupant, dst)
            ):
                return  # src -> occupant -> (thread order) -> dst
        if src.thread is not None:
            occupant = dst.tin[src.thread]
            if occupant is not None and (
                occupant is src or self._precedes_in_thread(src, occupant)
            ):
                return  # src -> (thread order) -> occupant -> dst
        # Displace edges the new one subsumes.
        if dst.thread is not None and src.tout[dst.thread] is not None:
            self._drop_edge(src, src.tout[dst.thread])
        if src.thread is not None and dst.tin[src.thread] is not None:
            self._drop_edge(dst.tin[src.thread], dst)
        # Write both sides.
        self._changed_out.append(src)
        self._changed_in.append(dst)
        if dst.thread is not None:
            src.tout[dst.thread] = dst
        else:
            src.free_out[dst] = None
        if src.thread is not None:
            dst.tin[src.thread] = src
        else:
            dst.free_in[src] = None

    def _drop_edge(self, src: ThreadedVertex, dst: ThreadedVertex) -> None:
        """Remove a state edge (both directions)."""
        self._changed_out.append(src)
        self._changed_in.append(dst)
        if dst.thread is not None and src.tout[dst.thread] is dst:
            src.tout[dst.thread] = None
        else:
            src.free_out.pop(dst, None)
        if src.thread is not None and dst.tin[src.thread] is src:
            dst.tin[src.thread] = None
        else:
            dst.free_in.pop(src, None)

    # ------------------------------------------------------------------
    # Engineering change: removing a scheduled operation.
    # ------------------------------------------------------------------

    def remove(self, node_id: str) -> None:
        """Unschedule an operation (engineering-change support).

        The vertex leaves the state; every precedence relation that ran
        *through* it is preserved by bridging its predecessors to its
        successors (conservative: artificial relations made through the
        vertex persist, which keeps the state sound w.r.t. Definition 3).
        The operation may be scheduled again later.
        """
        vertex = self.vertex(node_id)
        preds = [p for p in vertex.predecessors() if not p.is_sentinel]
        succs = [q for q in vertex.successors() if not q.is_sentinel]

        # Detach all incident edges (slots and free sets, both sides).
        for pred in vertex.predecessors():
            self._drop_edge(pred, vertex)
        for succ in vertex.successors():
            self._drop_edge(vertex, succ)

        if vertex.thread is not None:
            k = vertex.thread
            chain = self._threads[k]
            rank = self._rank.pop(vertex)
            chain.pop(rank)
            prev = chain[rank - 1] if rank - 1 >= 0 else self._s[k]
            nxt = chain[rank] if rank < len(chain) else self._t[k]
            prev.tout[k] = nxt
            nxt.tin[k] = prev
            self._reindex(k)
        else:
            self._free.pop(node_id, None)

        del self._vertices[node_id]
        self._order.remove(node_id)

        # Bridge predecessors to successors to keep transitivity.
        for pred in preds:
            for succ in succs:
                if pred is not succ:
                    self._add_edge(pred, succ)
        self._label_version = None
        self._cover_stale = True

    def _precedes_in_thread(
        self, first: ThreadedVertex, second: ThreadedVertex
    ) -> bool:
        """Thread-order comparison (both in the same thread)."""
        return (
            first.thread == second.thread
            and self._rank[first] < self._rank[second]
        )

    def _reindex(self, k: int) -> None:
        for rank, vertex in enumerate(self._threads[k]):
            self._rank[vertex] = rank

    def __repr__(self):
        sizes = ",".join(str(len(chain)) for chain in self._threads)
        return (
            f"ThreadedGraph(K={self.K}, threads=[{sizes}], "
            f"free={len(self._free)}, scheduled={len(self._vertices)})"
        )
