"""Bench E1: regenerate the paper's Figure 3 table.

Each benchmark case schedules one (benchmark, scheduler) pair across
the paper's three resource constraints, timing the runs and asserting
the schedule lengths the reproduction is pinned to (list baseline and
FIR match the paper exactly; threaded cells are never worse).

Run ``pytest benchmarks/bench_figure3.py --benchmark-only`` or
``python -m repro.experiments.figure3`` for the plain table.
"""

import pytest

from repro.core.scheduler import threaded_schedule
from repro.experiments.figure3 import (
    BENCHMARKS,
    CONSTRAINTS,
    FIGURE3_PAPER,
    SCHEDULERS,
    _META_OF,
)
from repro.graphs.registry import get_graph
from repro.scheduling.list_scheduler import ListPriority, list_schedule
from repro.scheduling.resources import ResourceSet

RESOURCE_SETS = [ResourceSet.parse(c) for c in CONSTRAINTS]


def _row(bench_name: str, scheduler: str):
    lengths = []
    for resources in RESOURCE_SETS:
        graph = get_graph(bench_name)
        if scheduler == "list sched":
            schedule = list_schedule(
                graph, resources, ListPriority.READY_ORDER
            )
        else:
            schedule = threaded_schedule(
                graph, resources, meta=_META_OF[scheduler]
            )
        lengths.append(schedule.length)
    return tuple(lengths)


@pytest.mark.parametrize("bench_name", BENCHMARKS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_figure3_row(benchmark, bench_name, scheduler):
    lengths = benchmark(_row, bench_name, scheduler)
    paper = FIGURE3_PAPER[bench_name][scheduler]
    # Reproduction bound: never worse than the paper's number.
    assert all(m <= p for m, p in zip(lengths, paper)), (
        f"{bench_name}/{scheduler}: measured {lengths} vs paper {paper}"
    )
    if scheduler == "list sched" or bench_name == "FIR":
        assert lengths == paper
