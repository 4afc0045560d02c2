"""Reference exact scheduler: the cross-check oracle for the BnB search.

:func:`repro.scheduling.bnb.bnb_anytime_schedule` is the library's one
exact search (it backs the ``bnb-anytime`` id and its ``exact``/``bnb``
aliases).  This module keeps an independent, deliberately plain
depth-first branch-and-bound with the same move semantics and none of
its machinery (no frame windows, no busy-tail bound, no Russian-doll
table), as the oracle the anytime search must agree with.

The search enumerates, at each control step, every subset of startable
ready operations that fits the free units, recursing step by step.  Two
classic bounds prune the tree: the critical-path bound (longest remaining
sink distance) and the resource bound (remaining work per unit type over
unit count).  The returned schedule's ``meta["completed"]`` says whether
the search ran to the end, which is what makes its length an optimum.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import InfeasibleError
from repro.ir.analysis import sink_distances
from repro.ir.dfg import DataFlowGraph
from repro.scheduling.base import Schedule, validate_schedule
from repro.scheduling.list_scheduler import ListPriority, list_schedule
from repro.scheduling.resources import FuType, ResourceSet

# A search state: ops already started (with start times) plus per-unit
# busy-until times, advanced step by step.  Memoised as (started op,
# reach past the current step) pairs plus (unit type rank, residual
# busy steps) pairs.
_MemoKey = Tuple[FrozenSet[Tuple[str, int]], Tuple[Tuple[int, int], ...]]


def exact_schedule(
    dfg: DataFlowGraph,
    resources: ResourceSet,
    node_limit: Optional[int] = 200_000,
) -> Schedule:
    """Minimum-latency resource-constrained schedule (exact).

    Intended for graphs up to roughly 20 operations; raises
    :class:`InfeasibleError` when an op has no compatible unit, and
    stops early (returning the best found so far) after ``node_limit``
    search nodes; ``None`` searches without a cap.  ``meta`` records
    ``explored`` (search nodes visited) and ``completed`` (the search
    finished, so the length is the optimum).
    """
    missing = resources.check_schedulable(dfg)
    if missing:
        raise InfeasibleError(
            f"no functional unit can execute: {', '.join(missing)}"
        )

    # Upper bound / incumbent from the list scheduler.
    incumbent = list_schedule(dfg, resources, ListPriority.SINK_DISTANCE)
    best_length = incumbent.length
    best_times = dict(incumbent.start_times)

    tdist = sink_distances(dfg)
    order = dfg.topological_order()
    fu_of: Dict[str, Optional[FuType]] = {
        n: (None if dfg.node(n).op.is_structural
            else resources.fu_for_op(dfg.node(n).op))
        for n in order
    }
    work_per_type: Dict[FuType, int] = {}
    for n in order:
        fu_type = fu_of[n]
        if fu_type is not None:
            work_per_type[fu_type] = (
                work_per_type.get(fu_type, 0) + max(1, dfg.delay(n))
            )

    out_weight = {
        n: max((e.weight for e in dfg.out_edges(n)), default=0)
        for n in order
    }
    type_rank = {
        fu_type: rank for rank, fu_type in enumerate(resources.fu_types)
    }

    limit = math.inf if node_limit is None else node_limit
    explored = 0
    seen: Dict[_MemoKey, int] = {}

    def remaining_bound(
        unstarted: List[str], finish_of: Dict[str, int], step: int
    ) -> int:
        """Lower bound on the final makespan given current progress.

        Every unstarted op starts at ``step`` or later, so both
        components count from ``step`` rather than from 0.
        """
        bound = max(finish_of.values(), default=0)
        rem_work: Dict[FuType, int] = {}
        for n in unstarted:
            # Critical-path component: op cannot finish before its ready
            # time plus its sink distance.
            ready = step
            for e in dfg.in_edges(n):
                if e.src in finish_of:
                    ready = max(ready, finish_of[e.src] + e.weight)
            bound = max(bound, ready + tdist[n])
            fu_type = fu_of[n]
            if fu_type is not None:
                rem_work[fu_type] = rem_work.get(fu_type, 0) + max(
                    1, dfg.delay(n)
                )
        for fu_type, work in rem_work.items():
            count = resources.count(fu_type)
            bound = max(bound, step - (-work // count))
        return bound

    start_times: Dict[str, int] = {}
    finish_of: Dict[str, int] = {}

    def search(step: int, busy: Dict[Tuple[FuType, int], int]) -> None:
        nonlocal best_length, best_times, explored
        explored += 1
        if explored > limit:
            return

        unstarted = [n for n in order if n not in start_times]
        if not unstarted:
            length = max(finish_of.values(), default=0)
            if length < best_length:
                best_length = length
                best_times = dict(start_times)
            return

        if remaining_bound(unstarted, finish_of, step) >= best_length:
            return

        # The memo key is relative to ``step``: which ops have started
        # and how far each still reaches past ``step`` (its finish, or
        # its finish plus an out-edge weight), floored where neither can
        # constrain the future.  The same key at a later step is that
        # state shifted in time, so it can never end sooner.
        key = (
            frozenset(
                (n, max(f - step, -out_weight[n]))
                for n, f in finish_of.items()
            ),
            tuple(sorted(
                (type_rank[unit[0]], max(0, b - step))
                for unit, b in busy.items()
            )),
        )
        prev = seen.get(key)
        if prev is not None and prev <= step:
            return
        seen[key] = step

        # Structural ops start the moment they are ready (no choice).
        placed_structural: List[str] = []
        for n in unstarted:
            if fu_of[n] is not None or dfg.node(n).op.is_structural is False:
                if fu_of[n] is not None:
                    continue
            if any(e.src not in finish_of for e in dfg.in_edges(n)):
                continue
            ready = max(
                (finish_of[e.src] + e.weight for e in dfg.in_edges(n)),
                default=0,
            )
            if ready <= step:
                start_times[n] = step
                finish_of[n] = step + dfg.delay(n)
                placed_structural.append(n)
        if placed_structural:
            search(step, busy)
            for n in placed_structural:
                del start_times[n]
                del finish_of[n]
            return

        startable: Dict[FuType, List[str]] = {}
        for n in unstarted:
            fu_type = fu_of[n]
            if fu_type is None:
                continue
            if any(e.src not in finish_of for e in dfg.in_edges(n)):
                continue
            ready = max(
                (finish_of[e.src] + e.weight for e in dfg.in_edges(n)),
                default=0,
            )
            if ready <= step:
                startable.setdefault(fu_type, []).append(n)

        free: Dict[FuType, List[Tuple[FuType, int]]] = {}
        for unit, until in busy.items():
            if until <= step:
                free.setdefault(unit[0], []).append(unit)

        # Enumerate per-type subsets (largest first so good solutions
        # surface early), then take the cartesian product across types.
        per_type_choices: List[List[Tuple[str, ...]]] = []
        fu_types = [ft for ft in startable if free.get(ft)]
        for fu_type in fu_types:
            candidates = startable[fu_type]
            capacity = min(len(free[fu_type]), len(candidates))
            choices: List[Tuple[str, ...]] = []
            for size in range(capacity, -1, -1):
                choices.extend(combinations(candidates, size))
            per_type_choices.append(choices)

        def issue(type_index: int, chosen: List[Tuple[str, ...]]) -> None:
            if type_index == len(per_type_choices):
                flat = [n for group in chosen for n in group]
                if not flat and not _anything_running(busy, step):
                    # Idling with nothing in flight can never help.
                    return
                new_busy = dict(busy)
                for group, fu_type in zip(chosen, fu_types):
                    units = iter(free[fu_type])
                    for n in group:
                        unit = next(units)
                        new_busy[unit] = step + max(1, dfg.delay(n))
                for n in flat:
                    start_times[n] = step
                    finish_of[n] = step + dfg.delay(n)
                search(step + 1, new_busy)
                for n in flat:
                    del start_times[n]
                    del finish_of[n]
                return
            for group in per_type_choices[type_index]:
                chosen.append(group)
                issue(type_index + 1, chosen)
                chosen.pop()

        if per_type_choices:
            issue(0, [])
        else:
            if not _anything_running(busy, step) and startable:
                return  # deadlock: ready work but no unit ever free
            search(step + 1, dict(busy))

    initial_busy = {unit: 0 for unit in resources.instances()}
    search(0, initial_busy)

    schedule = Schedule(
        dfg=dfg,
        start_times=best_times,
        resources=resources,
        algorithm="exact-bnb",
        meta={"explored": explored, "completed": explored <= limit},
    )
    # Same exit discipline as the anytime solver: every schedule this
    # module hands out is re-checked against precedence and unit
    # capacity, so a search bug surfaces as a loud SchedulingError
    # instead of an optimistic "optimum".
    validate_schedule(schedule, resources, check_binding=False)
    return schedule


def _anything_running(busy: Dict[Tuple[FuType, int], int], step: int) -> bool:
    return any(until > step for until in busy.values())
