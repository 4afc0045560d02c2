"""Force-directed scheduling (Paulin & Knight, 1989).

The second classic hard scheduler the paper cites.  FDS is
*time-constrained*: given a latency, it balances expected functional-unit
usage across steps so the peak (and hence the number of units) is
minimized.  We use it as a baseline in the ablation benches and to
produce latency/resource trade-off curves.

Implementation notes
--------------------
* Time frames are the ASAP/ALAP windows.  :func:`force_directed_schedule`
  maintains them incrementally through a
  :class:`~repro.scheduling.frames.FrameEngine` (fixing an op
  delta-propagates the narrowing to its cone) instead of the
  full-recompute sweep of the reference implementation.
* The distribution graph (DG) for a unit type spreads each op's
  occupancy probability uniformly over its feasible start steps,
  accounting for multi-cycle delays.  Banked memories get one DG per
  bank.
* The force of fixing op ``o`` at step ``s`` is the classic self force
  plus predecessor/successor forces (their self forces under the frames
  implied by the assignment).
* The fast path works in the index space of the graph's
  :class:`~repro.ir.graph_view.GraphView`.  Each DG group is a slot in
  a list, so the per-iteration work does no dict lookups keyed by the
  (costly to hash) unit types.  Per-slot prefix sums give, for every
  pending op, its self force at each start and the average force of
  each frame it can be clipped to; a candidate's force then sums table
  entries over its neighbours.
* Each iteration rebuilds the DG with :func:`_slot_distribution`, which
  walks the ops and steps in the order :func:`_distribution` does, so
  the two are equal float for float.  Patching the DG per narrowed
  frame instead would change the summation order and so the last bits.
  Candidates within :data:`FORCE_TIE_EPS` of the least force are
  re-scored with the reference force kernels on that DG (same floats,
  same tie-break), so the fast and reference schedulers pick the
  *identical* op/step sequence — asserted op-for-op by the equivalence
  tests.

:func:`force_directed_schedule_reference` is the pre-optimization
O(V^2 * L^2)-ish implementation, kept verbatim as the equivalence/perf
oracle (``benchmarks/perf_kernels.py`` measures the speedup against it).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.errors import GraphError, SchedulingError
from repro.ir.dfg import DataFlowGraph
from repro.ir.analysis import diameter
from repro.scheduling.base import Schedule
from repro.scheduling.frames import FrameEngine
from repro.scheduling.resources import ResourceSet, bank_assignment

#: Candidates whose prefix-sum force lies within this of the minimum are
#: re-scored with the reference kernels before the winner is picked.
#: Must exceed the float drift between the two summation orders (~1e-10
#: on benchmark-sized graphs) for the fast path to stay bit-compatible.
FORCE_TIE_EPS = 1e-6

#: A distribution-graph group: a plain :class:`FuType` for flat units,
#: ``(FuType, bank)`` for memory ops under a banked resource set —
#: balancing per *bank* is what makes FDS memory-aware (each bank's
#: ports are the contended resource, not the total port pool).
Group = object


def _group_map(
    dfg: DataFlowGraph, resources: ResourceSet
) -> Dict[str, Optional[Group]]:
    """Distribution-graph group of every node (``None`` = structural).

    Without a banked unit type this is exactly
    ``resources.fu_for_op(node.op)`` per node, so flat resource sets
    build byte-identical distribution graphs to the historical code
    (pinned by the fast/reference equivalence tests).
    """
    banked = resources.banked_fu()
    banks = (
        bank_assignment(dfg, banked.banking[0]) if banked is not None
        else {}
    )
    groups: Dict[str, Optional[Group]] = {}
    for node in dfg.node_objects():
        fu = resources.fu_for_op(node.op)
        if fu is not None and fu == banked and node.id in banks:
            groups[node.id] = (fu, banks[node.id])
        else:
            groups[node.id] = fu
    return groups


def _group_keys(resources: ResourceSet) -> List[Group]:
    """Every distribution-graph key for ``resources``, stable order."""
    keys: List[Group] = []
    for fu in resources.fu_types:
        banking = fu.banking
        if banking is None:
            keys.append(fu)
        else:
            keys.extend((fu, bank) for bank in range(banking[0]))
    return keys


def _frames(
    dfg: DataFlowGraph,
    latency: int,
    fixed: Dict[str, int],
    windows: Optional[Dict[str, Tuple[int, int]]] = None,
) -> Dict[str, Tuple[int, int]]:
    """ASAP/ALAP start windows honouring already-fixed ops.

    ``windows`` optionally pins external ``{node id: (lo, hi)}`` start
    bounds (the hierarchical boundary constraints); each clamps the
    operation's natural frame before propagation.  Full-recompute
    reference; the incremental counterpart is
    :class:`~repro.scheduling.frames.FrameEngine`.
    """
    order = dfg.topological_order()
    windows = windows or {}
    asap: Dict[str, int] = {}
    for node_id in order:
        lo = 0
        for edge in dfg.in_edges(node_id):
            lo = max(lo, asap[edge.src] + dfg.delay(edge.src) + edge.weight)
        if node_id in windows:
            lo = max(lo, windows[node_id][0])
        if node_id in fixed:
            if fixed[node_id] < lo:
                raise SchedulingError(
                    f"fixed time {fixed[node_id]} for {node_id} violates "
                    f"precedence (needs >= {lo})"
                )
            lo = fixed[node_id]
        asap[node_id] = lo

    alap: Dict[str, int] = {}
    for node_id in reversed(order):
        hi = latency - dfg.delay(node_id)
        for edge in dfg.out_edges(node_id):
            hi = min(hi, alap[edge.dst] - edge.weight - dfg.delay(node_id))
        if node_id in windows:
            hi = min(hi, windows[node_id][1])
        if node_id in fixed:
            hi = fixed[node_id]
        alap[node_id] = hi

    for node_id in order:
        if asap[node_id] > alap[node_id]:
            raise SchedulingError(
                f"infeasible frame for {node_id}: "
                f"[{asap[node_id]}, {alap[node_id]}] within latency {latency}"
            )
    return {n: (asap[n], alap[n]) for n in order}


def _distribution(
    dfg: DataFlowGraph,
    resources: ResourceSet,
    frames: Dict[str, Tuple[int, int]],
    latency: int,
    groups: Optional[Dict[str, Optional[Group]]] = None,
) -> Dict[Group, List[float]]:
    """Expected per-step occupancy per group (the classic DG).

    Groups are unit types, except banked memories contribute one DG
    per bank (see :func:`_group_map`).
    """
    if groups is None:
        groups = _group_map(dfg, resources)
    dist: Dict[Group, List[float]] = {
        key: [0.0] * latency for key in _group_keys(resources)
    }
    for node in dfg.node_objects():
        fu_type = groups[node.id]
        if fu_type is None:
            continue
        lo, hi = frames[node.id]
        width = hi - lo + 1
        weight = 1.0 / width
        span = max(1, node.delay)
        for start in range(lo, hi + 1):
            for step in range(start, min(start + span, latency)):
                dist[fu_type][step] += weight
    return dist


def _self_force(
    node_delay: int,
    fu_dist: List[float],
    frame: Tuple[int, int],
    start: int,
    latency: int,
) -> float:
    """Force of pinning an op (frame -> single start step)."""
    lo, hi = frame
    width = hi - lo + 1
    span = max(1, node_delay)
    old = [0.0] * latency
    for s in range(lo, hi + 1):
        for step in range(s, min(s + span, latency)):
            old[step] += 1.0 / width
    force = 0.0
    for step in range(latency):
        new_occ = 1.0 if start <= step < start + span else 0.0
        force += fu_dist[step] * (new_occ - old[step])
    return force


def _slot_distribution(
    slot_of: List[int],
    spans: List[int],
    lo: List[int],
    hi: List[int],
    num_slots: int,
    latency: int,
) -> List[List[float]]:
    """:func:`_distribution` in index space: one DG row per group slot.

    ``slot_of[i]`` is the slot of view index ``i`` (``-1`` for
    structural ops).  Nodes are walked in view order — the order
    ``_distribution`` walks ``node_objects()`` — and each ``weight`` is
    added to each step in the same order, so every float equals the
    reference DG's bit for bit.
    """
    dist = [[0.0] * latency for _ in range(num_slots)]
    for i, slot in enumerate(slot_of):
        if slot < 0:
            continue
        row = dist[slot]
        lo_i, hi_i = lo[i], hi[i]
        weight = 1.0 / (hi_i - lo_i + 1)
        span = spans[i]
        if span == 1:
            for step in range(lo_i, min(hi_i + 1, latency)):
                row[step] += weight
        elif hi_i + span <= latency:
            for start in range(lo_i, hi_i + 1):
                for step in range(start, start + span):
                    row[step] += weight
        else:
            for start in range(lo_i, hi_i + 1):
                for step in range(start, min(start + span, latency)):
                    row[step] += weight
    return dist


def force_directed_schedule(
    dfg: DataFlowGraph,
    resources: ResourceSet,
    latency: Optional[int] = None,
    windows: Optional[Dict[str, Tuple[int, int]]] = None,
) -> Schedule:
    """Time-constrained force-directed scheduling (incremental kernels).

    ``latency`` defaults to the critical-path length.  ``resources`` is
    used for the op->unit-type mapping of the distribution graphs; the
    returned schedule reports (rather than enforces) per-type peak usage
    via :meth:`Schedule.usage_profile`.  ``windows`` optionally pins
    per-op ``(lo, hi)`` start bounds; an explicit ``latency`` must be
    large enough for them (``repro.engine`` derives one).

    Produces the same schedule, op for op, as
    :func:`force_directed_schedule_reference`.
    """
    span = diameter(dfg)
    if latency is None:
        latency = span
    if latency < span:
        raise GraphError(
            f"latency {latency} below critical path length {span}"
        )
    view = dfg.view()
    n = view.num_nodes
    if n == 0:
        return Schedule(
            dfg=dfg,
            start_times={},
            resources=resources,
            algorithm="force-directed",
        )

    engine = FrameEngine(dfg, latency, windows=windows)
    lo, hi = engine.lo, engine.hi
    ids = view.ids
    delays = view.delays
    groups = _group_map(dfg, resources)
    keys = _group_keys(resources)
    slot_index = {key: slot for slot, key in enumerate(keys)}
    slot_of = [
        -1 if groups[node_id] is None else slot_index[groups[node_id]]
        for node_id in ids
    ]
    spans = [max(1, d) for d in delays]
    # Grouped neighbours with the step gap between the candidate's start
    # and the neighbour's clipped bound: a predecessor's ALAP becomes
    # ``start - gap``, a successor's ASAP ``start + gap``.
    pred_gaps = [
        [
            (p, w + delays[p])
            for p, w in view.predecessors(i)
            if slot_of[p] >= 0
        ]
        for i in range(n)
    ]
    succ_gaps = [
        [
            (s, delays[i] + w)
            for s, w in view.successors(i)
            if slot_of[s] >= 0
        ]
        for i in range(n)
    ]

    fixed: Dict[str, int] = {}
    pending: Dict[int, None] = dict.fromkeys(range(n))
    L = latency
    # Per-iteration force tables of the pending grouped ops (see below).
    self_forces: List[List[float]] = [[] for _ in range(n)]
    clip_hi: List[List[float]] = [[] for _ in range(n)]
    clip_lo: List[List[float]] = [[] for _ in range(n)]

    def mean_sum(alpha, beta, span, ssp, total):
        """Mean of ``SP[min(s + span, L)] - SP[s]`` over ``s`` in
        ``[alpha, beta]``, from the double prefix sums ``ssp``."""
        tail = L - span
        if beta <= tail:
            clipped = ssp[beta + span + 1] - ssp[alpha + span]
        elif alpha > tail:
            clipped = (beta - alpha + 1) * total
        else:
            clipped = (
                ssp[tail + span + 1]
                - ssp[alpha + span]
                + (beta - tail) * total
            )
        return (clipped - (ssp[beta + 1] - ssp[alpha])) / (beta - alpha + 1)

    while pending:
        # Ops whose frame is already a single step are fixed for free.
        trivially_fixed = [i for i in pending if lo[i] == hi[i]]
        if trivially_fixed:
            for i in trivially_fixed:
                fixed[ids[i]] = lo[i]
                engine.fix(ids[i], lo[i])
                del pending[i]
            continue

        # Rebuilt, not patched: see the module notes.
        dist = _slot_distribution(slot_of, spans, lo, hi, len(keys), L)

        # Per-slot prefix sums: SP[k] = sum(dist[:k]), SSP[k] =
        # sum(SP[:k]).  They turn each clipped-frame force into O(1).
        prefix = [list(accumulate(row, initial=0.0)) for row in dist]
        double_prefix = [
            list(accumulate(sp_arr, initial=0.0)) for sp_arr in prefix
        ]

        # Per pending grouped op ``j``: its self force at each start,
        # and the force of each frame a neighbour's fixing can clip it
        # to, ``clip_hi[j][b - lo]`` for ALAP ``b`` (``j`` as a
        # predecessor) and ``clip_lo[j][a - lo - 1]`` for ASAP ``a``
        # (``j`` as a successor).  ``base`` is the start-independent
        # part: the mass the op's uniform spread already claims.
        for j in pending:
            slot = slot_of[j]
            if slot < 0:
                continue
            sp_arr = prefix[slot]
            ssp_arr = double_prefix[slot]
            span_j = spans[j]
            lo_j, hi_j = lo[j], hi[j]
            if hi_j > L - span_j:
                # A zero-delay op whose frame reaches ``L``: its
                # occupancy is clipped there, so take the general sums.
                total = sp_arr[L]
                base = mean_sum(lo_j, hi_j, span_j, ssp_arr, total)
                self_forces[j] = [
                    sp_arr[min(start + span_j, L)] - sp_arr[start] - base
                    for start in range(lo_j, hi_j + 1)
                ]
                clip_hi[j] = [
                    mean_sum(lo_j, b, span_j, ssp_arr, total) - base
                    for b in range(lo_j, hi_j)
                ]
                clip_lo[j] = [
                    mean_sum(a, hi_j, span_j, ssp_arr, total) - base
                    for a in range(lo_j + 1, hi_j + 1)
                ]
                continue
            # Every start ends by ``L``: ``mean_sum``'s first branch,
            # unrolled over the whole table.
            head = ssp_arr[lo_j + span_j]
            low = ssp_arr[lo_j]
            end = ssp_arr[hi_j + span_j + 1]
            top = ssp_arr[hi_j + 1]
            base = ((end - head) - (top - low)) / (hi_j - lo_j + 1)
            self_forces[j] = [
                x - y - base
                for x, y in zip(
                    sp_arr[lo_j + span_j : hi_j + span_j + 1],
                    sp_arr[lo_j : hi_j + 1],
                )
            ]
            ahead = ssp_arr[lo_j + span_j + 1 : hi_j + span_j + 1]
            inner = ssp_arr[lo_j + 1 : hi_j + 1]
            clip_hi[j] = [
                ((x - head) - (y - low)) / w - base
                for x, y, w in zip(ahead, inner, range(1, hi_j - lo_j + 1))
            ]
            clip_lo[j] = [
                ((end - x) - (top - y)) / w - base
                for x, y, w in zip(ahead, inner, range(hi_j - lo_j, 0, -1))
            ]

        # Score every candidate start of every pending op.  Neighbour
        # terms are added per neighbour over the starts that clip it, in
        # the same order per start as a per-candidate sum.  The frame
        # invariants (``lo[i] >= lo[p] + gap``, ``hi[p] <= hi[i] - gap``)
        # make those starts a prefix of ``i``'s frame for a predecessor
        # (``start - gap < hi[p]``) and a suffix for a successor
        # (``start + gap > lo[s]``).
        scored: List[Tuple[float, int, List[float]]] = []
        for i in pending:
            lo_i = lo[i]
            forces = (
                self_forces[i]
                if slot_of[i] >= 0
                else [0.0] * (hi[i] - lo_i + 1)
            )
            for p, gap in pred_gaps[i]:
                m = hi[p] + gap - lo_i
                if m > 0:
                    forces[:m] = [
                        f + t for f, t in zip(forces, clip_hi[p][-m:])
                    ]
            for s, gap in succ_gaps[i]:
                m = hi[i] + gap - lo[s]
                if m > 0:
                    forces[-m:] = [
                        f + t for f, t in zip(forces[-m:], clip_lo[s])
                    ]
            scored.append((min(forces), i, forces))

        # Candidates within FORCE_TIE_EPS of the minimum are re-scored
        # with the reference kernels; a lone one wins outright.
        threshold = min(scored)[0] + FORCE_TIE_EPS
        near = [
            (i, lo[i] + k)
            for least, i, forces in scored
            if least <= threshold
            for k, force in enumerate(forces)
            if force <= threshold
        ]
        if len(near) == 1:
            i, start = near[0]
            chosen = ids[i]
        else:
            frames = engine.frames_dict()
            dist_of = dict(zip(keys, dist))
            best: Optional[Tuple[float, str, int]] = None
            for i, start in near:
                node_id = ids[i]
                force = 0.0
                if slot_of[i] >= 0:
                    frame = (lo[i], hi[i])
                    force += _self_force(
                        delays[i], dist[slot_of[i]], frame, start, L
                    )
                force += _neighbour_forces(
                    dfg, resources, frames, dist_of, node_id, start, L, groups
                )
                key = (force, node_id, start)
                if best is None or key < best:
                    best = key
            _, chosen, start = best
        engine.fix(chosen, start)
        fixed[chosen] = start
        del pending[view.index[chosen]]

    return Schedule(
        dfg=dfg,
        start_times=fixed,
        resources=resources,
        algorithm="force-directed",
    )


def force_directed_schedule_reference(
    dfg: DataFlowGraph,
    resources: ResourceSet,
    latency: Optional[int] = None,
    windows: Optional[Dict[str, Tuple[int, int]]] = None,
) -> Schedule:
    """The pre-optimization FDS: full frame/force recompute per fixing.

    Kept as the oracle for the equivalence tests and the perf
    microbench; produces the same schedules as
    :func:`force_directed_schedule`.
    """
    span = diameter(dfg)
    if latency is None:
        latency = span
    if latency < span:
        raise GraphError(
            f"latency {latency} below critical path length {span}"
        )

    fixed: Dict[str, int] = {}
    pending = [n for n in dfg.nodes()]
    groups = _group_map(dfg, resources)

    while pending:
        frames = _frames(dfg, latency, fixed, windows)
        dist = _distribution(dfg, resources, frames, latency, groups)

        # Ops whose frame is already a single step are fixed for free.
        trivially_fixed = [
            n for n in pending if frames[n][0] == frames[n][1]
        ]
        if trivially_fixed:
            for node_id in trivially_fixed:
                fixed[node_id] = frames[node_id][0]
                pending.remove(node_id)
            continue

        best: Optional[Tuple[float, str, int]] = None
        for node_id in pending:
            node = dfg.node(node_id)
            fu_type = groups[node_id]
            lo, hi = frames[node_id]
            for start in range(lo, hi + 1):
                force = 0.0
                if fu_type is not None:
                    force += _self_force(
                        node.delay, dist[fu_type], (lo, hi), start, latency
                    )
                force += _neighbour_forces(
                    dfg, resources, frames, dist, node_id, start, latency,
                    groups,
                )
                key = (force, node_id, start)
                if best is None or key < best:
                    best = key
        assert best is not None
        _, chosen, start = best
        fixed[chosen] = start
        pending.remove(chosen)

    return Schedule(
        dfg=dfg,
        start_times=fixed,
        resources=resources,
        algorithm="force-directed",
    )


def _neighbour_forces(
    dfg: DataFlowGraph,
    resources: ResourceSet,
    frames: Dict[str, Tuple[int, int]],
    dist: Dict[Group, List[float]],
    node_id: str,
    start: int,
    latency: int,
    groups: Optional[Dict[str, Optional[Group]]] = None,
) -> float:
    """Predecessor/successor forces of pinning ``node_id`` at ``start``.

    Fixing an op clips the ALAP of predecessors and the ASAP of
    successors; each clipped neighbour contributes its self force under
    the narrowed frame.
    """
    if groups is None:
        groups = _group_map(dfg, resources)
    total = 0.0
    for edge in dfg.in_edges(node_id):
        pred = dfg.node(edge.src)
        lo, hi = frames[edge.src]
        new_hi = min(hi, start - edge.weight - pred.delay)
        if new_hi < hi:
            fu_type = groups[edge.src]
            if fu_type is not None and new_hi >= lo:
                total += _avg_self_force(
                    pred.delay, dist[fu_type], (lo, hi), (lo, new_hi), latency
                )
    for edge in dfg.out_edges(node_id):
        succ = dfg.node(edge.dst)
        lo, hi = frames[edge.dst]
        new_lo = max(lo, start + dfg.delay(node_id) + edge.weight)
        if new_lo > lo:
            fu_type = groups[edge.dst]
            if fu_type is not None and new_lo <= hi:
                total += _avg_self_force(
                    succ.delay, dist[fu_type], (lo, hi), (new_lo, hi), latency
                )
    return total


def _avg_self_force(
    node_delay: int,
    fu_dist: List[float],
    old_frame: Tuple[int, int],
    new_frame: Tuple[int, int],
    latency: int,
) -> float:
    """Force of narrowing a neighbour's frame (averaged over new frame)."""
    lo_new, hi_new = new_frame
    width = hi_new - lo_new + 1
    total = 0.0
    for start in range(lo_new, hi_new + 1):
        total += _self_force(node_delay, fu_dist, old_frame, start, latency)
    return total / width
