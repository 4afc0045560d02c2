"""The per-vertex record of Algorithm 1.

The paper's ``Vertex`` carries two pointer arrays of size K — ``in[k]``
points to the (single) predecessor residing in thread ``k`` and
``out[k]`` to the (single) successor residing in thread ``k`` — plus the
source/sink distance labels and the owning thread.  Bounding the arrays
by K is what gives Lemma 7 (degree <= K) and hence the linear-time
Theorem 3.

Each vertex also carries its row of the *chain cover*: the K threads
are chains covering the state, so the vertices of thread ``k`` that
reach a given vertex form a prefix of that thread, and the ones it
reaches a suffix.  ``before[k]`` names the last member of that prefix
and ``after[k]`` the first member of that suffix, which is all the
insertion windows of ``select`` need.

Vertices that never occupy a functional unit (wire delays, constants)
are *free*: they belong to no thread and keep plain adjacency sets
instead of the K-slot arrays.  They are rare (one per refinement), so
they do not endanger the degree bound that matters — the one on threaded
vertices.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.ops import OpKind


class ThreadedVertex:
    """One scheduled operation (or sentinel) in the scheduling state."""

    __slots__ = (
        "node_id",
        "op",
        "delay",
        "thread",
        "tin",
        "tout",
        "free_in",
        "free_out",
        "sdist",
        "tdist",
        "before",
        "after",
        "is_sentinel",
    )

    def __init__(
        self,
        node_id: str,
        op: Optional[OpKind],
        delay: int,
        num_threads: int,
        thread: Optional[int] = None,
        is_sentinel: bool = False,
    ):
        self.node_id = node_id
        self.op = op
        self.delay = delay
        #: Owning thread index, or None for free vertices.
        self.thread: Optional[int] = thread
        #: tin[k]: the unique in-neighbour residing in thread k (or None).
        self.tin: List[Optional["ThreadedVertex"]] = [None] * num_threads
        #: tout[k]: the unique out-neighbour residing in thread k.
        self.tout: List[Optional["ThreadedVertex"]] = [None] * num_threads
        #: Edges to/from *free* (threadless) vertices — ordered dicts
        #: used as ordered sets, so iteration is deterministic.
        self.free_in: Dict["ThreadedVertex", None] = {}
        self.free_out: Dict["ThreadedVertex", None] = {}
        #: Distance labels maintained by ThreadedGraph.label().
        self.sdist = 0
        self.tdist = 0
        #: Chain cover maintained by ThreadedGraph: before[k] is the
        #: latest thread-k vertex reaching this one (itself included),
        #: after[k] the earliest thread-k vertex it reaches.
        self.before: List[Optional["ThreadedVertex"]] = [None] * num_threads
        self.after: List[Optional["ThreadedVertex"]] = [None] * num_threads
        self.is_sentinel = is_sentinel

    # ------------------------------------------------------------------

    def predecessors(self) -> List["ThreadedVertex"]:
        """All in-neighbours (threaded slots plus free edges)."""
        result = [p for p in self.tin if p is not None]
        result.extend(self.free_in)
        return result

    def successors(self) -> List["ThreadedVertex"]:
        """All out-neighbours (threaded slots plus free edges)."""
        result = [q for q in self.tout if q is not None]
        result.extend(self.free_out)
        return result

    def in_degree(self) -> int:
        return sum(1 for p in self.tin if p is not None) + len(self.free_in)

    def out_degree(self) -> int:
        return sum(1 for q in self.tout if q is not None) + len(self.free_out)

    @property
    def is_free(self) -> bool:
        return self.thread is None and not self.is_sentinel

    def __repr__(self):
        if self.is_sentinel:
            return f"<sentinel {self.node_id}>"
        where = "free" if self.thread is None else f"thread {self.thread}"
        return f"<{self.node_id} on {where} sdist={self.sdist} tdist={self.tdist}>"
