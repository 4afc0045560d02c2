"""The scheduling-algorithm table: every algorithm declared once.

:data:`ALGORITHMS` maps each canonical algorithm id to one
:class:`Algorithm` record: the runner, the aliases that resolve to the
id, and the three capabilities other layers gate on.  Every
capability check in the system derives from this table through
:func:`capable` and :func:`require_capability`, so adding an algorithm
(or teaching one a new constraint) is one record here plus its row in
``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.scheduler import threaded_schedule
from repro.errors import SchedulingError
from repro.ir.analysis import diameter
from repro.ir.dfg import DataFlowGraph
from repro.scheduling.base import Schedule
from repro.scheduling.bnb import bnb_anytime_schedule
from repro.scheduling.force_directed import force_directed_schedule
from repro.scheduling.list_scheduler import ListPriority, list_schedule
from repro.scheduling.resources import ResourceSet

#: Extra latency slack granted to (time-constrained) force-directed
#: scheduling over the critical path, matching the ablation benches.
FDS_SLACK = 3

#: Node budget applied when a ``bnb-anytime`` job arrives with no
#: explicit budget, so plain batch/serve requests (the ``exact``
#: alias and the engine's gap comparator included) stay bounded on
#: graphs the proof search cannot close quickly.  The improver tier
#: passes explicit budgets and rewrites the same canonical entry as
#: it tightens the incumbent.
DEFAULT_BNB_NODE_BUDGET = 400_000


def _run_list_ready(
    dfg: DataFlowGraph,
    resources: ResourceSet,
    windows: Optional[Dict[str, Tuple[int, int]]] = None,
) -> Schedule:
    return list_schedule(
        dfg, resources, ListPriority.READY_ORDER, windows=windows
    )


def _run_list_cp(
    dfg: DataFlowGraph,
    resources: ResourceSet,
    windows: Optional[Dict[str, Tuple[int, int]]] = None,
) -> Schedule:
    return list_schedule(
        dfg, resources, ListPriority.SINK_DISTANCE, windows=windows
    )


def _windowed_latency(
    dfg: DataFlowGraph, windows: Optional[Dict[str, Tuple[int, int]]]
) -> int:
    """FDS latency bound that leaves room for every window upper pin.

    ``hi[i] = latency - tdist[i]`` in the frame engine, so honouring a
    pin ``start <= whi`` needs ``latency >= whi + tdist``; anything
    less would make the pinned frame infeasible before scheduling even
    starts.
    """
    latency = diameter(dfg) + FDS_SLACK
    if windows:
        view = dfg.view()
        tdist = view.sink_distance_array()
        index = view.index
        for op, (_lo, hi) in windows.items():
            need = hi + tdist[index[op]]
            if need > latency:
                latency = need
    return latency


def _run_fds(
    dfg: DataFlowGraph,
    resources: ResourceSet,
    windows: Optional[Dict[str, Tuple[int, int]]] = None,
) -> Schedule:
    return force_directed_schedule(
        dfg,
        resources,
        latency=_windowed_latency(dfg, windows),
        windows=windows,
    )


def _run_hier(dfg: DataFlowGraph, resources: ResourceSet) -> Schedule:
    # Local import: repro.hier builds on the engine's JobSpec.
    from repro.hier.orchestrator import hier_schedule

    return hier_schedule(dfg, resources).schedule


def _run_bnb(
    dfg: DataFlowGraph,
    resources: ResourceSet,
    budget: Optional[Dict[str, int]] = None,
    windows: Optional[Dict[str, Tuple[int, int]]] = None,
) -> Schedule:
    run = dict(budget) if budget else {"nodes": DEFAULT_BNB_NODE_BUDGET}
    return bnb_anytime_schedule(dfg, resources, budget=run, windows=windows)


def _make_threaded(meta: str):
    def run(dfg: DataFlowGraph, resources: ResourceSet) -> Schedule:
        return threaded_schedule(dfg, resources, meta=meta)

    return run


@dataclass(frozen=True)
class Algorithm:
    """One scheduling algorithm and what it accepts.

    ``runner`` is called ``(dfg, resources)`` plus the keywords the
    capabilities grant: ``windows=`` when ``windows`` is set,
    ``budget=`` when ``budget`` is set.

    ``windows``
        Per-op ``(lo, hi)`` start pins — the boundary constraints of
        hierarchical scheduling and the lowering target of the ``io``
        scenario.  ``bnb-anytime`` treats both bounds as hard; the
        list/FDS heuristics treat ``lo`` as a hard release and ``hi``
        as advisory.
    ``budget``
        A search budget; cached results carry anytime metadata
        (``artifact.meta.bnb``) and are rewritten in place only by
        strictly better ones.
    ``banked_mem``
        Honours banked-memory port conflicts (the ``memory``
        scenario): the list scheduler allocates ports within the op's
        bank, FDS balances per-bank distribution graphs.  Search-based
        runners bound work by total unit counts and would silently
        ignore banking.
    """

    runner: Callable[..., Schedule]
    aliases: Tuple[str, ...] = ()
    windows: bool = False
    budget: bool = False
    banked_mem: bool = False


#: Canonical algorithm id -> its record; insertion order is the
#: stable :func:`algorithm_ids` order.
ALGORITHMS: Dict[str, Algorithm] = {
    "list(ready)": Algorithm(
        _run_list_ready,
        ("list", "list-ready", "ready"),
        windows=True,
        banked_mem=True,
    ),
    "list(critical-path)": Algorithm(
        _run_list_cp,
        ("list-cp", "critical-path"),
        windows=True,
        banked_mem=True,
    ),
    "force-directed": Algorithm(
        _run_fds, ("fds",), windows=True, banked_mem=True
    ),
    "threaded(meta1)": Algorithm(
        _make_threaded("meta1-dfs"), ("meta1", "threaded-meta1")
    ),
    "threaded(meta2)": Algorithm(
        _make_threaded("meta2-topological"),
        ("meta2", "threaded", "threaded-meta2"),
    ),
    "threaded(meta3)": Algorithm(
        _make_threaded("meta3-paths"), ("meta3", "threaded-meta3")
    ),
    "threaded(meta4)": Algorithm(
        _make_threaded("meta4-list-order"), ("meta4", "threaded-meta4")
    ),
    "bnb-anytime": Algorithm(
        _run_bnb, ("anytime", "exact", "bnb"), windows=True, budget=True
    ),
    "hier-fds": Algorithm(_run_hier, ("hier",)),
}

#: The paper's threaded scheduler: what a request or sweep runs when
#: it names no algorithm.
DEFAULT_ALGORITHM = "threaded(meta2)"


def algorithm_ids() -> List[str]:
    """Canonical algorithm ids, stable order."""
    return list(ALGORITHMS)


def canonical_algorithm(name: str) -> str:
    """Resolve an algorithm name or alias to its canonical id."""
    key = name.strip().lower()
    for algorithm_id, algorithm in ALGORITHMS.items():
        if key == algorithm_id or key in algorithm.aliases:
            return algorithm_id
    known = ", ".join(sorted(ALGORITHMS))
    raise SchedulingError(f"unknown algorithm {name!r}; known: {known}")


def capable(capability: str) -> List[str]:
    """Sorted canonical ids of the algorithms with ``capability``
    (``"windows"``, ``"budget"`` or ``"banked_mem"``)."""
    return sorted(
        algorithm_id
        for algorithm_id, algorithm in ALGORITHMS.items()
        if getattr(algorithm, capability)
    )


def require_capability(algorithm: str, capability: str, message: str) -> None:
    """Refuse ``algorithm`` unless it has ``capability``.

    ``message`` is the refusal text, formatted with ``algorithm`` and
    ``known`` (the comma-joined :func:`capable` ids); an id missing
    from the table is refused like an incapable one.
    """
    known = capable(capability)
    if algorithm not in known:
        raise SchedulingError(
            message.format(algorithm=algorithm, known=", ".join(known))
        )
