"""Reference list scheduler: the full-rescan step loop.

:func:`repro.scheduling.list_scheduler.list_schedule` keeps its ready
operations in per-unit-type heaps and pops only as many as there are
free units.  This module keeps the straightforward loop it replaced —
collect every ready op, sort by priority, try each against the free
units — as the oracle the heap version must match op for op.
"""

from typing import Dict, Optional, Tuple

from repro.errors import InfeasibleError
from repro.ir.dfg import DataFlowGraph
from repro.scheduling.base import Schedule
from repro.ir.analysis import sink_distances
from repro.scheduling.frames import FrameEngine
from repro.scheduling.list_scheduler import ListPriority
from repro.scheduling.resources import FuType, ResourceSet, bank_assignment


def reference_list_schedule(
    dfg: DataFlowGraph,
    resources: ResourceSet,
    priority: ListPriority = ListPriority.SINK_DISTANCE,
    windows: Optional[Dict[str, Tuple[int, int]]] = None,
) -> Schedule:
    """The step loop as it was before slot heaps: every control step
    rescans and re-sorts the whole ready pool."""
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

    order_index = {node_id: i for i, node_id in enumerate(dfg.nodes())}
    keys = _priority_keys(dfg, priority, order_index)

    remaining_preds = {n: dfg.in_degree(n) for n in dfg.nodes()}
    # earliest[n]: earliest start once all preds are done (edge weights
    # in); window lower bounds act as release times.
    releases = windows or {}
    earliest: Dict[str, int] = {
        n: max(0, releases[n][0]) if n in releases else 0
        for n in dfg.nodes()
    }
    # ready pool: ops whose preds have all been *scheduled* (their finish
    # times known); each becomes startable at earliest[n].  An
    # insertion-ordered dict-as-set keeps the O(n) list.remove() out of
    # the inner loop while preserving the deterministic pool order.
    ready: Dict[str, None] = dict.fromkeys(
        n for n in dfg.nodes() if remaining_preds[n] == 0
    )
    arrival: Dict[str, int] = {n: earliest[n] for n in ready}

    start_times: Dict[str, int] = {}
    binding: Dict[str, Tuple[FuType, int]] = {}
    # busy_until[(fu_type, idx)]: first step the unit is free again.
    busy_until: Dict[Tuple[FuType, int], int] = {
        unit: 0 for unit in resources.instances()
    }

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
                ready[succ] = None
                arrival[succ] = earliest[succ]

    while scheduled < total:
        if step > guard:
            raise InfeasibleError(
                f"list scheduler exceeded {guard} steps; "
                "graph or resources are inconsistent"
            )
        # Structural ops issue as soon as they are startable, outside the
        # unit-allocation loop.
        for node_id in list(ready):
            if dfg.node(node_id).op.is_structural and earliest[node_id] <= step:
                del ready[node_id]
                start_times[node_id] = step
                scheduled += 1
                on_scheduled(node_id, step)

        startable = [
            n
            for n in ready
            if earliest[n] <= step and not dfg.node(n).op.is_structural
        ]
        if priority is ListPriority.READY_ORDER:
            startable.sort(key=lambda n: (arrival[n], order_index[n]))
        else:
            startable.sort(key=lambda n: keys[n])

        for node_id in startable:
            fu_type = resources.fu_for_op(dfg.node(node_id).op)
            unit = _free_unit(
                busy_until, resources, fu_type, step,
                bank=bank_of_op.get(node_id),
            )
            if unit is None:
                continue
            del ready[node_id]
            start_times[node_id] = step
            binding[node_id] = unit
            busy_until[unit] = step + max(1, dfg.delay(node_id))
            scheduled += 1
            on_scheduled(node_id, step)

        step += 1
        if ready:
            floor = min(earliest[n] for n in ready)
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
    """Sort keys per node; lower sorts first."""
    if priority is ListPriority.SINK_DISTANCE:
        tdist = sink_distances(dfg)
        return {n: (-tdist[n], order_index[n]) for n in dfg.nodes()}
    if priority is ListPriority.MOBILITY:
        # Mobility is the initial frame width minus one; the frame
        # engine serves it straight off the cached graph view.
        frames = FrameEngine(dfg)
        return {n: (frames.width(n) - 1, order_index[n]) for n in dfg.nodes()}
    if priority is ListPriority.READY_ORDER:
        return {n: (0, order_index[n]) for n in dfg.nodes()}
    raise ValueError(f"unknown priority {priority!r}")


def _free_unit(
    busy_until: Dict[Tuple[FuType, int], int],
    resources: ResourceSet,
    fu_type: Optional[FuType],
    step: int,
    bank: Optional[int] = None,
) -> Optional[Tuple[FuType, int]]:
    """First free instance of ``fu_type`` at ``step``, or ``None``.

    ``bank`` restricts the scan to that bank's port slice of a banked
    type; ``None`` (flat types, or a banked op on an unbanked set)
    scans every instance.
    """
    if fu_type is None:
        return None
    lo, hi = 0, resources.count(fu_type)
    if bank is not None and fu_type.banking is not None:
        ports = fu_type.banking[1]
        lo, hi = bank * ports, (bank + 1) * ports
    for index in range(lo, hi):
        unit = (fu_type, index)
        if busy_until[unit] <= step:
            return unit
    return None
