"""Incremental labels and windows equal their oracles; schedules stay put.

``ThreadedGraph.label()`` relabels only the vertices an insertion can
change; ``label(force=True)`` is the full topological sweep it must
agree with.  Likewise the insertion windows come from chain-cover
vectors folded in at each insertion and rebuilt after a removal;
:func:`bfs_windows` recomputes them with the two multi-source BFS
passes over the state that the kernel used before.  The property test
checks both after each step, across graph families, meta schedules,
typed and universal threads, weighted edges, and the refinement
operations that mutate the state or the DFG mid-run.  The digest test
pins the hardened start times of the registry graphs to the values the
full-sweep kernel produced.
"""

import hashlib
import random

from hypothesis import example, given, settings, strategies as st

from repro.core.improve import improve_schedule
from repro.core.meta import get_meta_schedule
from repro.core.refine import insert_wire_delay, resolve_phi, unschedule
from repro.core.scheduler import ThreadedScheduler
from repro.core.threaded_graph import ThreadedGraph
from repro.graphs.random_dags import (
    random_expression_dag,
    random_hier_dag,
    random_layered_dag,
)
from repro.graphs.registry import get_graph, graph_names
from repro.ir.ops import OpKind
from repro.scheduling.resources import ResourceSet

FAMILIES = {
    "layered": random_layered_dag,
    "expression": random_expression_dag,
    "hier": random_hier_dag,
}
METAS = ("meta1", "meta2", "meta3", "meta4")
RESOURCE_SETS = ("1+/-,1*", "2+/-,2*", "4+/-,3*")

#: sha256 of the registry start times (see _start_time_digest), captured
#: with the kernel that fully re-swept its labels after every insertion.
REGISTRY_DIGEST = (
    "17ffec0546736d860ead38f775a6b20dfd9a6c2fa820ce98e166d80ea0674773"
)


def assert_labels_match_sweep(state: ThreadedGraph) -> None:
    state.label()
    incremental = {
        v.node_id: (v.sdist, v.tdist) for v in state.vertices()
    }
    state.label(force=True)
    swept = {v.node_id: (v.sdist, v.tdist) for v in state.vertices()}
    assert incremental == swept


def _reach(roots, forward):
    """Multi-source reachability over the state (roots included)."""
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        vertex = frontier.pop()
        neighbours = vertex.successors() if forward else vertex.predecessors()
        for other in neighbours:
            if not other.is_sentinel and other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen


def bfs_windows(state: ThreadedGraph, node_id: str):
    """``(lo, hi)`` per thread for inserting ``node_id``: after the last
    thread member reaching a scheduled DFG ancestor, before the first
    one reached from a scheduled DFG descendant."""
    dfg = state.dfg
    rank = {}
    for k in range(state.K):
        for position, member in enumerate(state.thread_members(k)):
            rank[member] = position
    lo = [-1] * state.K
    hi = [len(state.thread_members(k)) for k in range(state.K)]
    ancestors = [
        state.vertex(a) for a in dfg.reaching_to(node_id) if a in state
    ]
    for vertex in _reach(ancestors, forward=False):
        if vertex.thread is not None:
            k = vertex.thread
            lo[k] = max(lo[k], rank[vertex.node_id])
    descendants = [
        state.vertex(d) for d in dfg.reachable_from(node_id) if d in state
    ]
    for vertex in _reach(descendants, forward=True):
        if vertex.thread is not None:
            k = vertex.thread
            hi[k] = min(hi[k], rank[vertex.node_id])
    return lo, hi


def assert_windows_match_bfs(state: ThreadedGraph) -> None:
    for node_id in state.dfg.nodes():
        if node_id not in state:
            cover = state._windows(state._walk(node_id))
            assert cover == bfs_windows(state, node_id), node_id


def _add_phi(dfg, rng: random.Random) -> str:
    """A PHI node spliced after a random op (x -> phi -> x's consumer)."""
    source = rng.choice(dfg.nodes())
    dfg.add_node("phi0", OpKind.PHI)
    dfg.add_edge(source, "phi0")
    consumers = dfg.successors(source)
    consumers.remove("phi0")
    if consumers:
        dfg.add_edge("phi0", rng.choice(consumers))
    return "phi0"


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    size=st.integers(min_value=2, max_value=36),
    seed=st.integers(0, 10_000),
    meta=st.sampled_from(METAS),
    threads=st.one_of(
        st.integers(1, 4), st.sampled_from(RESOURCE_SETS)
    ),
    weighted=st.booleans(),
    with_phi=st.booleans(),
    actions=st.lists(
        st.sampled_from(
            ("wire", "reschedule", "remove", "improve", "phi", "none")
        ),
        min_size=0,
        max_size=6,
    ),
)
# A weighted edge whose gain no state path carries: only propagating
# along the weighted edge itself relabels its head.
@example(
    family="hier", size=22, seed=8066, meta="meta1", threads=2,
    weighted=True, with_phi=False, actions=[],
)
# A removal that lowers labels through a weighted edge.
@example(
    family="layered", size=18, seed=9880, meta="meta2", threads=4,
    weighted=True, with_phi=False,
    actions=["none", "reschedule", "reschedule", "phi", "none", "phi"],
)
# A weighted edge longer than the list scheduler's old step guard
# (meta4 runs the list scheduler for its order).
@example(
    family="expression", size=2, seed=646, meta="meta4", threads=1,
    weighted=True, with_phi=False, actions=[],
)
def test_incremental_labels_equal_full_sweep(
    family, size, seed, meta, threads, weighted, with_phi, actions
):
    rng = random.Random(seed)
    dfg = FAMILIES[family](size, seed=seed)
    if weighted:
        for edge in dfg.edges():
            edge.weight = rng.choice((0, 0, 1, 3, 8))
    phi = _add_phi(dfg, rng) if with_phi else None
    if isinstance(threads, int):
        state = ThreadedGraph(dfg, threads)
    else:
        state = ThreadedGraph.from_resources(
            dfg, ResourceSet.parse(threads)
        )

    order = get_meta_schedule(meta)(dfg)
    # Spread the actions over the run: one after each chosen insertion.
    slots = rng.sample(range(len(order)), min(len(actions), len(order)))
    planned = dict(zip(slots, actions))
    for position, node_id in enumerate(order):
        state.schedule(node_id)
        assert_labels_match_sweep(state)
        assert_windows_match_bfs(state)
        action = planned.get(position)
        scheduled = state.scheduled_ids()
        if action == "wire":
            edges = [
                e for e in dfg.edges()
                if e.src in state and e.dst in state
            ]
            if edges:
                edge = rng.choice(edges)
                insert_wire_delay(state, edge.src, edge.dst)
        elif action == "reschedule":
            victim = rng.choice(scheduled)
            # No window check in between: rescheduling a free victim
            # commits against the stale chain cover the removal left.
            unschedule(state, victim)
            assert_labels_match_sweep(state)
            state.schedule(victim)
        elif action == "remove":
            unschedule(state, rng.choice(scheduled))
        elif action == "improve":
            improve_schedule(state, max_rounds=1)
        elif (
            action == "phi"
            and phi in state
            and dfg.node(phi).op is OpKind.PHI
        ):
            resolve_phi(state, phi, into=rng.choice(("move", "nop")))
        assert_labels_match_sweep(state)
        assert_windows_match_bfs(state)


def _start_time_digest() -> str:
    """sha256 over the hardened start times of every registry graph
    each resource set can execute, under all four meta schedules."""
    digest = hashlib.sha256()
    for name in graph_names():
        for resources_text in RESOURCE_SETS:
            resources = ResourceSet.parse(resources_text)
            if resources.check_schedulable(get_graph(name)):
                continue
            for meta in METAS:
                schedule = (
                    ThreadedScheduler(
                        get_graph(name), resources=resources, meta=meta
                    )
                    .run()
                    .harden()
                )
                times = ",".join(
                    f"{op}:{start}"
                    for op, start in sorted(schedule.start_times.items())
                )
                digest.update(
                    f"{name}|{resources_text}|{meta}|{times}\n".encode()
                )
    return digest.hexdigest()


def test_registry_start_times_match_full_sweep_kernel():
    assert _start_time_digest() == REGISTRY_DIGEST
