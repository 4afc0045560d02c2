"""Experiment E4: the linearity claim (Theorem 3).

Theorem 3: Algorithm 1 schedules one operation in O(|V|) time (for a
fixed thread count K), against O(|V| * |E|) per operation for the naive
speculative scheduler of Section 4.2.  This experiment schedules random
layered DAGs of growing size with both and reports

* wall-clock time per scheduled operation, and
* abstract work counters (``SchedulerStats.total_work()`` — label
  visits, position scans, window visits (vertices whose chain-cover
  vectors an insertion folded or a removal rebuilt) and rewired edges
  — for Algorithm 1; relaxed edges for the naive scheduler),

so the scaling shape is visible even on noisy machines.  Both come from
the production :class:`~repro.core.threaded_graph.ThreadedGraph`, whose
labels are incremental: a label visit is one vertex re-evaluated in an
insertion's forward or backward cone, and a full sweep counts every
vertex twice.  The naive
scheduler is capped at a configurable size — it is cubic-ish and the
point is made long before it becomes unbearable.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.naive import NaiveSoftScheduler
from repro.core.threaded_graph import ThreadedGraph
from repro.experiments.tables import render_table
from repro.graphs.random_dags import random_layered_dag


@dataclass(frozen=True)
class ComplexityPoint:
    """One measurement: graph size vs per-op cost for both schedulers."""

    num_nodes: int
    threads: int
    threaded_seconds_per_op: float
    threaded_work_per_op: float
    naive_seconds_per_op: Optional[float]
    naive_work_per_op: Optional[float]


def complexity_series(
    sizes: Sequence[int] = (50, 100, 200, 400, 800),
    threads: int = 4,
    seed: int = 7,
    naive_limit: int = 200,
) -> List[ComplexityPoint]:
    """Measure both schedulers across graph sizes."""
    points: List[ComplexityPoint] = []
    for size in sizes:
        dfg = random_layered_dag(size, seed=seed, mul_fraction=0.0)
        order = dfg.topological_order()

        state = ThreadedGraph(dfg, threads)
        begin = time.perf_counter()
        for node_id in order:
            state.schedule(node_id)
        threaded_elapsed = time.perf_counter() - begin
        threaded_work = state.stats.total_work() / size

        naive_seconds = naive_work = None
        if size <= naive_limit:
            naive = NaiveSoftScheduler(dfg, threads)
            begin = time.perf_counter()
            for node_id in order:
                naive.schedule(node_id)
            naive_seconds = (time.perf_counter() - begin) / size
            naive_work = naive.work / size

        points.append(
            ComplexityPoint(
                num_nodes=size,
                threads=threads,
                threaded_seconds_per_op=threaded_elapsed / size,
                threaded_work_per_op=threaded_work,
                naive_seconds_per_op=naive_seconds,
                naive_work_per_op=naive_work,
            )
        )
    return points


def render(points: List[ComplexityPoint]) -> str:
    rows = []
    for p in points:
        rows.append(
            [
                p.num_nodes,
                f"{p.threaded_seconds_per_op * 1e6:.1f}",
                f"{p.threaded_work_per_op:.0f}",
                "-" if p.naive_seconds_per_op is None
                else f"{p.naive_seconds_per_op * 1e6:.1f}",
                "-" if p.naive_work_per_op is None
                else f"{p.naive_work_per_op:.0f}",
            ]
        )
    return render_table(
        ["|V|", "Alg1 us/op", "Alg1 work/op", "naive us/op", "naive work/op"],
        rows,
        title=(
            "Theorem 3: per-operation cost, Algorithm 1 vs naive "
            "speculative scheduler"
        ),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    argparse.ArgumentParser(
        prog="repro complexity",
        description="Measure Theorem 3's linearity claim.",
    ).parse_args(argv)
    points = complexity_series()
    print(render(points))
    grow = points[-1].threaded_work_per_op / points[0].threaded_work_per_op
    size_ratio = points[-1].num_nodes / points[0].num_nodes
    print(
        f"\nAlgorithm 1 work/op grew {grow:.1f}x over a {size_ratio:.0f}x "
        "size increase (linear => ratios comparable)."
    )
    return 0


if __name__ == "__main__":
    main()
