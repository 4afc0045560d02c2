"""Pin the baseline-priority claim the Figure 3 reproduction rests on.

The paper does not state which ready-list priority its list scheduler
used.  The reproduction's claim is that first-come-first-served
(READY_ORDER) reproduces the paper's numbers while critical-path
priority (SINK_DISTANCE) produces slightly *better* baselines on HAL —
this test keeps that statement true.
"""

from repro.graphs import get_graph
from repro.scheduling import ListPriority, ResourceSet, list_schedule

CONSTRAINTS = ("2+/-,2*", "4+/-,4*", "2+/-,1*")


def _row(bench_name, priority):
    return tuple(
        list_schedule(
            get_graph(bench_name), ResourceSet.parse(c), priority
        ).length
        for c in CONSTRAINTS
    )


def test_ready_order_reproduces_paper_rows():
    assert _row("HAL", ListPriority.READY_ORDER) == (8, 6, 13)
    assert _row("AR", ListPriority.READY_ORDER) == (19, 11, 34)
    assert _row("EF", ListPriority.READY_ORDER) == (19, 17, 24)
    assert _row("FIR", ListPriority.READY_ORDER) == (11, 7, 19)


def test_critical_path_priority_beats_paper_on_hal():
    assert _row("HAL", ListPriority.SINK_DISTANCE) == (7, 6, 13)


def test_critical_path_never_worse_than_fifo_by_much():
    for bench_name in ("HAL", "AR", "EF", "FIR"):
        fifo = _row(bench_name, ListPriority.READY_ORDER)
        cp = _row(bench_name, ListPriority.SINK_DISTANCE)
        for fifo_len, cp_len in zip(fifo, cp):
            assert cp_len <= fifo_len + 1
