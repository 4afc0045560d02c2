"""Ablation bench: all schedulers head-to-head on the paper benchmarks.

Not a paper artifact per se — this is the design-choice ablation:
list (both priorities), force-directed, threaded
(best meta) and, on HAL, the proved branch-and-bound optimum as the
yardstick.  The graph/constraint line-up is the unified suite from
:mod:`repro.engine.bench` (also behind ``python -m repro bench``).
"""

import pytest

from repro.core.scheduler import threaded_schedule
from repro.engine.bench import SUITE_BENCHES, SUITE_CONSTRAINT
from repro.graphs.registry import get_graph
from repro.ir.analysis import diameter
from repro.scheduling.bnb import bnb_anytime_schedule
from repro.scheduling.force_directed import force_directed_schedule
from repro.scheduling.list_scheduler import ListPriority, list_schedule
from repro.scheduling.resources import ResourceSet

RESOURCES = ResourceSet.parse(SUITE_CONSTRAINT)
BENCHES = SUITE_BENCHES


@pytest.mark.parametrize("bench_name", BENCHES)
def test_list_ready_order(benchmark, bench_name):
    graph = get_graph(bench_name)
    schedule = benchmark(
        list_schedule, graph, RESOURCES, ListPriority.READY_ORDER
    )
    assert schedule.length >= diameter(graph)


@pytest.mark.parametrize("bench_name", BENCHES)
def test_list_critical_path(benchmark, bench_name):
    graph = get_graph(bench_name)
    schedule = benchmark(
        list_schedule, graph, RESOURCES, ListPriority.SINK_DISTANCE
    )
    assert schedule.length >= diameter(graph)


@pytest.mark.parametrize("bench_name", BENCHES)
def test_threaded_meta4(benchmark, bench_name):
    graph = get_graph(bench_name)
    schedule = benchmark(
        threaded_schedule, graph, RESOURCES, "meta4-list-order"
    )
    assert schedule.length >= diameter(graph)


@pytest.mark.parametrize("bench_name", ("HAL", "FIR"))
def test_force_directed(benchmark, bench_name):
    graph = get_graph(bench_name)
    latency = diameter(graph) + 3
    schedule = benchmark(
        force_directed_schedule, graph, RESOURCES, latency
    )
    assert schedule.length <= latency


def test_exact_hal(benchmark):
    graph = get_graph("HAL")
    schedule = benchmark(bnb_anytime_schedule, graph, RESOURCES)
    assert schedule.meta["bnb"]["proved"]
    assert schedule.length == 7  # certified optimum

    heuristic = list_schedule(graph, RESOURCES, ListPriority.SINK_DISTANCE)
    assert schedule.length <= heuristic.length
