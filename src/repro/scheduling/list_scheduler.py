"""Resource-constrained list scheduling — the paper's baseline.

The scheduler walks control steps in order.  At each step it collects the
*ready* operations (all predecessors finished, edge weights honoured),
orders them by a priority function, and starts as many as free units
allow; multi-cycle operations hold their unit for their full delay
(non-pipelined units, the standard assumption for the benchmarks).

The priority function is pluggable because the paper does not state which
variant its baseline used, and the choice changes a few Figure 3 cells:

* :attr:`ListPriority.SINK_DISTANCE` — classic critical-path list
  scheduling (higher ``||v->||`` first).
* :attr:`ListPriority.READY_ORDER` — first-come-first-served on the ready
  queue (arrival step, then graph order).  This variant reproduces the
  paper's reported lengths exactly (pinned by
  ``tests/experiments/test_priority_variants.py``).
* :attr:`ListPriority.MOBILITY` — least mobility (ALAP - ASAP) first.

Structural operations (wire delays, constants) never occupy a unit; they
are placed at their earliest feasible step.

Slot heaps
----------
No step rescans the ready pool.  Each unit type is an integer *slot*
with a list of busy-until steps, one per unit.  An op whose
predecessors all have start times knows its earliest step; it waits in
a release heap until that step, then in its slot's heap, keyed by its
priority (fixed from then on).  At each step a slot pops only as many
ops as it has free units, binding them to the free units in index
order.  Slots share no units, so this equals one pass over all
startable ops in priority order; the ops started in a step are recorded
in that global order.  The banked-memory slot keeps a full pass per
step instead, since each op may only take a port of its own bank.
Structural ops keep a plain ready list scanned every step; one released
during a step's pass waits for the next step.
``tests/scheduling/test_list_reference.py`` checks the heaps against
the full-rescan loop they replaced.
"""

from __future__ import annotations

import enum
import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import InfeasibleError
from repro.ir.analysis import sink_distances
from repro.ir.dfg import DataFlowGraph
from repro.scheduling.base import Schedule
from repro.scheduling.frames import FrameEngine
from repro.scheduling.resources import FuType, ResourceSet, bank_assignment


class ListPriority(enum.Enum):
    """Ready-list ordering policies for :func:`list_schedule`."""

    SINK_DISTANCE = "sink_distance"
    READY_ORDER = "ready_order"
    MOBILITY = "mobility"


def list_schedule(
    dfg: DataFlowGraph,
    resources: ResourceSet,
    priority: ListPriority = ListPriority.SINK_DISTANCE,
    windows: Optional[Dict[str, Tuple[int, int]]] = None,
) -> Schedule:
    """Resource-constrained list scheduling.

    ``windows`` optionally pins per-op ``(lo, hi)`` start bounds; under
    resource constraints only the lower bound is enforceable, so the
    scheduler treats ``lo`` as a release time and ``hi`` as advisory
    (the hierarchical orchestrator re-derives real upper bounds from
    the stitched result).  Returns a :class:`Schedule` with a concrete
    unit binding.  Raises :class:`InfeasibleError` if some operation
    cannot execute on any available unit type.
    """
    missing = resources.check_schedulable(dfg)
    if missing:
        raise InfeasibleError(
            f"no functional unit can execute: {', '.join(missing)}"
        )

    # Banked memory: each memory op may only use the ports of its own
    # bank (ports are numbered bank-major, so bank b owns indices
    # [b*P, (b+1)*P)).  Flat resource sets have no banked type and the
    # map stays empty — allocation is untouched.
    banked = resources.banked_fu()
    bank_of_op = (
        bank_assignment(dfg, banked.banking[0]) if banked is not None
        else {}
    )

    nodes = dfg.nodes()
    order_index = {node_id: i for i, node_id in enumerate(nodes)}
    ready_order = priority is ListPriority.READY_ORDER
    keys = {} if ready_order else _priority_keys(dfg, priority, order_index)

    # Slot space: unit type -> slot index; busy[slot][i] is the first
    # step unit i of that type is free again.
    fu_types = resources.fu_types
    slot_of = {fu_type: slot for slot, fu_type in enumerate(fu_types)}
    busy: List[List[int]] = [[0] * resources.count(ft) for ft in fu_types]
    banked_slot = slot_of.get(banked)
    op_slot: Dict[str, int] = {}
    structural: Set[str] = set()
    for node_id in nodes:
        op = dfg.node(node_id).op
        if op.is_structural:
            structural.add(node_id)
        else:
            op_slot[node_id] = slot_of[resources.fu_for_op(op)]

    remaining_preds = {n: dfg.in_degree(n) for n in nodes}
    # earliest[n]: earliest start once all preds are done (edge weights
    # in); window lower bounds act as release times.
    releases = windows or {}
    earliest: Dict[str, int] = {
        n: max(0, releases[n][0]) if n in releases else 0
        for n in nodes
    }
    # An op is *ready* once every predecessor has a start time, which
    # fixes its earliest step.  Ready structural ops wait in an
    # insertion-ordered dict; ready unit ops wait in the release heap
    # until their earliest step, then in their slot's heap, keyed by
    # priority (fixed from then on: READY_ORDER's arrival is the
    # earliest step, known at release).
    structural_ready: Dict[str, None] = {}
    release: List[Tuple[int, int, str]] = []
    pools: List[List[Tuple[Tuple[int, int], str]]] = [[] for _ in fu_types]

    def make_ready(node_id: str) -> None:
        if node_id in structural:
            structural_ready[node_id] = None
        else:
            heapq.heappush(
                release, (earliest[node_id], order_index[node_id], node_id)
            )

    for node_id in nodes:
        if remaining_preds[node_id] == 0:
            make_ready(node_id)

    start_times: Dict[str, int] = {}
    binding: Dict[str, Tuple[FuType, int]] = {}

    scheduled = 0
    step = 0
    total = dfg.num_nodes
    # Upper bound on steps: serialize everything, edge weights
    # included, past the last release (defensive guard).
    max_release = max(earliest.values(), default=0)
    guard = (
        max_release
        + dfg.total_delay()
        + sum(edge.weight for edge in dfg.edges())
        + dfg.num_edges
        + dfg.num_nodes
        + 1
    )

    def on_scheduled(node_id: str, start: int) -> None:
        """Release successors whose last predecessor just got a time."""
        finish = start + dfg.delay(node_id)
        for edge in dfg.out_edges(node_id):
            succ = edge.dst
            earliest[succ] = max(earliest[succ], finish + edge.weight)
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                make_ready(succ)

    while scheduled < total:
        if step > guard:
            raise InfeasibleError(
                f"list scheduler exceeded {guard} steps; "
                "graph or resources are inconsistent"
            )
        # Structural ops issue as soon as they are startable, outside the
        # unit allocation.  Ones released by this pass wait a step.
        for node_id in list(structural_ready):
            if earliest[node_id] <= step:
                del structural_ready[node_id]
                start_times[node_id] = step
                scheduled += 1
                on_scheduled(node_id, step)

        while release and release[0][0] <= step:
            _, _, node_id = heapq.heappop(release)
            key = (
                (earliest[node_id], order_index[node_id]) if ready_order
                else keys[node_id]
            )
            heapq.heappush(pools[op_slot[node_id]], (key, node_id))

        # Each slot starts its best-priority ops on its free units, in
        # unit order.  Slots share nothing, so this equals one pass over
        # all ready ops in priority order.  The banked slot tries every
        # ready op against its own bank's ports.
        started: List[Tuple[Tuple[int, int], str, Tuple[FuType, int]]] = []
        for slot, pool in enumerate(pools):
            if not pool:
                continue
            fu_type, units = fu_types[slot], busy[slot]
            if slot == banked_slot:
                waiting = []
                for entry in sorted(pool):
                    node_id = entry[1]
                    index = _free_unit(
                        units, step, fu_type, bank_of_op.get(node_id)
                    )
                    if index is None:
                        waiting.append(entry)
                        continue
                    units[index] = step + max(1, dfg.delay(node_id))
                    started.append((entry[0], node_id, (fu_type, index)))
                pool[:] = waiting  # sorted, hence still a heap
                continue
            for index, free_at in enumerate(units):
                if not pool:
                    break
                if free_at <= step:
                    key, node_id = heapq.heappop(pool)
                    units[index] = step + max(1, dfg.delay(node_id))
                    started.append((key, node_id, (fu_type, index)))

        # Record in global priority order, as one pass over the whole
        # ready pool would (start_times keeps that insertion order).
        started.sort(key=lambda entry: entry[0])
        for _, node_id, unit in started:
            start_times[node_id] = step
            binding[node_id] = unit
            scheduled += 1
            on_scheduled(node_id, step)

        step += 1
        if not any(pools):
            # Nothing startable is waiting for a unit, so the next
            # event is the earliest pending release.
            pending = [earliest[n] for n in structural_ready]
            if release:
                pending.append(release[0][0])
            floor = min(pending, default=step)
            if floor > step:
                # Every ready op is still before its release; skip the
                # provably idle steps (hierarchical window releases can
                # be far in the future, in global time).
                step = floor

    return Schedule(
        dfg=dfg,
        start_times=start_times,
        binding=binding,
        resources=resources,
        algorithm=f"list/{priority.value}",
    )


def _priority_keys(
    dfg: DataFlowGraph,
    priority: ListPriority,
    order_index: Dict[str, int],
):
    """Sort keys per node for the static priorities; lower sorts first.

    READY_ORDER has none: its key is the arrival step, known only once
    the op is ready.
    """
    if priority is ListPriority.SINK_DISTANCE:
        tdist = sink_distances(dfg)
        return {n: (-tdist[n], order_index[n]) for n in dfg.nodes()}
    if priority is ListPriority.MOBILITY:
        # Mobility is the initial frame width minus one; the frame
        # engine serves it straight off the cached graph view.
        frames = FrameEngine(dfg)
        return {n: (frames.width(n) - 1, order_index[n]) for n in dfg.nodes()}
    raise ValueError(f"unknown priority {priority!r}")


def _free_unit(
    units: List[int],
    step: int,
    fu_type: FuType,
    bank: Optional[int],
) -> Optional[int]:
    """First index among ``units`` free at ``step``, or ``None``.

    ``bank`` restricts the scan to that bank's port slice of a banked
    type; ``None`` (an op the bank map does not cover) scans every
    instance.
    """
    lo, hi = 0, len(units)
    if bank is not None:
        ports = fu_type.banking[1]
        lo, hi = bank * ports, (bank + 1) * ports
    for index in range(lo, hi):
        if units[index] <= step:
            return index
    return None
