"""``repro benchmarks`` and ``repro schedule``: the benchmark registry
from the command line."""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.core.scheduler import threaded_schedule
from repro.graphs.registry import get_graph, list_graphs
from repro.scheduling.resources import DEFAULT_RESOURCES, ResourceSet


def cmd_benchmarks(args: Sequence[str]) -> int:
    """List the shipped benchmark graphs."""
    argparse.ArgumentParser(
        prog="repro benchmarks",
        description="List the shipped benchmark graphs.",
    ).parse_args(list(args))
    for info in list_graphs():
        tag = "paper" if info.in_paper else "extra"
        print(f"{info.name:<6} [{tag}] {info.description}")
    return 0


def cmd_schedule(args: Sequence[str]) -> int:
    """Soft-schedule one benchmark and print its step table."""
    parser = argparse.ArgumentParser(
        prog="repro schedule",
        description=(
            "Soft-schedule one registry benchmark with the threaded "
            "scheduler and print its control-step table."
        ),
    )
    parser.add_argument(
        "graph", metavar="BENCH", help="registry benchmark name (e.g. HAL)"
    )
    parser.add_argument(
        "resources",
        nargs="?",
        default=DEFAULT_RESOURCES,
        metavar="SPEC",
        help="resource constraint (default %(default)s)",
    )
    parser.add_argument(
        "meta",
        nargs="?",
        default="meta2",
        metavar="META",
        help="meta schedule (default %(default)s)",
    )
    opts = parser.parse_args(list(args))
    schedule = threaded_schedule(
        get_graph(opts.graph),
        ResourceSet.parse(opts.resources),
        meta=opts.meta,
    )
    print(
        f"{opts.graph} on {opts.resources} with {opts.meta}: "
        f"{schedule.length} control steps"
    )
    print(schedule.table())
    return 0
