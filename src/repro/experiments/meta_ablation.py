"""Experiment E6: meta-schedule sensitivity (Section 5's claim).

    "In practice, many meta schedules can lead to results comparable to
    the traditional list scheduler."

We schedule a population of seeded random layered DAGs with the four
paper meta schedules plus random permutations, and report the
distribution of the threaded-schedule length relative to the list
scheduler's on the same graph/resources.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.meta import META_SCHEDULES, meta_random
from repro.core.scheduler import threaded_schedule
from repro.experiments.tables import render_table
from repro.graphs.random_dags import random_layered_dag
from repro.scheduling.list_scheduler import ListPriority, list_schedule
from repro.scheduling.resources import DEFAULT_RESOURCES, ResourceSet


@dataclass
class AblationSummary:
    """Length-ratio statistics for one meta schedule."""

    meta: str
    ratios: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return sum(self.ratios) / len(self.ratios) if self.ratios else 0.0

    @property
    def worst(self) -> float:
        return max(self.ratios, default=0.0)

    @property
    def best(self) -> float:
        return min(self.ratios, default=0.0)

    @property
    def wins_or_ties(self) -> int:
        return sum(1 for r in self.ratios if r <= 1.0)


def meta_ablation(
    num_graphs: int = 20,
    num_nodes: int = 60,
    constraint: str = DEFAULT_RESOURCES,
    random_orders: int = 3,
    seed: int = 2024,
) -> List[AblationSummary]:
    """Length ratio (threaded / list) across a random-DAG population."""
    resources = ResourceSet.parse(constraint)
    metas = dict(META_SCHEDULES)
    for index in range(random_orders):
        rand = meta_random(seed + index)
        metas[rand.__name__] = rand

    summaries = {name: AblationSummary(meta=name) for name in metas}
    for graph_index in range(num_graphs):
        dfg = random_layered_dag(
            num_nodes, seed=seed + 1000 + graph_index, mul_fraction=0.35
        )
        baseline = list_schedule(
            dfg, resources, ListPriority.READY_ORDER
        ).length
        for name, meta in metas.items():
            length = threaded_schedule(dfg, resources, meta=meta).length
            summaries[name].ratios.append(length / baseline)
    return list(summaries.values())


def render(summaries: List[AblationSummary]) -> str:
    rows = [
        [
            s.meta,
            f"{s.mean:.3f}",
            f"{s.best:.3f}",
            f"{s.worst:.3f}",
            f"{s.wins_or_ties}/{len(s.ratios)}",
        ]
        for s in summaries
    ]
    return render_table(
        ["meta schedule", "mean ratio", "best", "worst", "<= list"],
        rows,
        title=(
            "Meta-schedule ablation: threaded length / list length over "
            "random DAGs"
        ),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    argparse.ArgumentParser(
        prog="repro ablation",
        description="Measure meta-schedule sensitivity on random DAGs.",
    ).parse_args(argv)
    print(render(meta_ablation()))
    return 0


if __name__ == "__main__":
    main()
