"""``repro hier``: hierarchical scheduling from the command line.

Partitions one (large) graph, schedules the parts as window-constrained
jobs — locally, across worker processes, or against a running ``repro
serve`` / ``repro dispatch`` target — and reports the stitched
schedule with its per-round gap trajectory.  The ``--json`` report is
what the CI hier-smoke job audits (round monotonicity, unique subgraph
keys vs the cluster's fresh-compute counter).
"""

from __future__ import annotations

import argparse
import time
from typing import Optional, Sequence

from repro.engine.algorithms import FDS_SLACK, capable
from repro.engine.batch import DEFAULT_WORKERS
from repro.engine.cli import add_json, write_json
from repro.errors import ReproError
from repro.graphs.random_dags import random_hier_dag
from repro.graphs.registry import get_graph
from repro.hier.orchestrator import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_SUBGRAPH_ALGORITHM,
    BatchEngine,
    EngineBackend,
    ServeBackend,
    hier_schedule,
)
from repro.ir.partition import DEFAULT_MAX_OPS
from repro.resilience.policy import DEFAULT_MAX_ATTEMPTS, RetryPolicy

REPORT_FORMAT = "repro-hier-v1"


def cmd_hier(args: Sequence[str]) -> int:
    """Entry point for ``repro hier``."""
    parser = argparse.ArgumentParser(
        prog="repro hier",
        description=(
            "Hierarchically schedule one graph: partition into acyclic "
            "parts, schedule each part as a window-constrained job, "
            "stitch via boundary windows, iterate while the gap "
            "improves."
        ),
    )
    parser.add_argument(
        "graph",
        nargs="?",
        metavar="BENCH",
        help=(
            "registry benchmark name, scale tier included "
            "(e.g. HIER10K); omit when using --random"
        ),
    )
    parser.add_argument(
        "--random",
        type=int,
        metavar="N",
        help="schedule a seeded N-op random hierarchical DAG instead",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for --random (default %(default)s)",
    )
    parser.add_argument(
        "--resources",
        "-r",
        default="4+/-,4*",
        metavar="SPEC",
        help="resource constraint per part (default %(default)s)",
    )
    parser.add_argument(
        "--algorithm",
        "-a",
        default=DEFAULT_SUBGRAPH_ALGORITHM,
        metavar="ALGO",
        help=(
            "window-capable subgraph algorithm (default %(default)s); "
            "known: " + ", ".join(capable("windows"))
        ),
    )
    parser.add_argument(
        "--max-ops",
        type=int,
        default=DEFAULT_MAX_OPS,
        metavar="N",
        help="target ops per part (default %(default)s)",
    )
    parser.add_argument(
        "--parts",
        type=int,
        metavar="N",
        help="exact part count (overrides --max-ops)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=DEFAULT_MAX_ROUNDS,
        metavar="N",
        help="round budget including the seed round (default %(default)s)",
    )
    parser.add_argument(
        "--slack",
        type=int,
        default=FDS_SLACK,
        metavar="N",
        help=(
            "extra steps above the windowed ASAP for seed-round "
            "boundary pins (default %(default)s)"
        ),
    )
    parser.add_argument(
        "--target",
        metavar="HOST:PORT",
        help=(
            "POST subgraph jobs to this repro serve / dispatch "
            "address instead of scheduling locally"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_WORKERS,
        metavar="N",
        help=(
            "local worker processes, or concurrent requests against "
            "--target (default %(default)s)"
        ),
    )
    parser.add_argument(
        "--retry-attempts",
        type=int,
        default=DEFAULT_MAX_ATTEMPTS,
        metavar="N",
        help=(
            "max attempts per subgraph request against --target; "
            "0 retries until the exchange succeeds (default %(default)s)"
        ),
    )
    add_json(parser)
    opts = parser.parse_args(list(args))
    if opts.graph is None and opts.random is None:
        raise ReproError("pass a benchmark name or --random N")
    if opts.graph is not None and opts.random is not None:
        raise ReproError("pass either a benchmark name or --random, not both")
    # Built up front, with or without --target, so a bad value fails
    # before any graph is built.
    retry = RetryPolicy(max_attempts=opts.retry_attempts)

    if opts.random is not None:
        dfg = random_hier_dag(opts.random, seed=opts.seed)
        label = dfg.name
    else:
        dfg = get_graph(opts.graph)
        label = opts.graph.upper()

    backend = None
    engine: Optional[BatchEngine] = None
    if opts.target is not None:
        backend = ServeBackend(opts.target, workers=opts.workers, retry=retry)
    elif opts.workers != DEFAULT_WORKERS:
        # Any other count, out-of-range ones included, goes to the
        # engine, which checks it.
        engine = BatchEngine(
            workers=opts.workers, capture_schedules=True
        ).start()
        backend = EngineBackend(engine)

    started = time.perf_counter()
    try:
        result = hier_schedule(
            dfg,
            opts.resources,
            algorithm=opts.algorithm,
            max_ops=opts.max_ops,
            num_parts=opts.parts,
            max_rounds=opts.rounds,
            slack=opts.slack,
            backend=backend,
        )
    finally:
        if engine is not None:
            engine.shutdown()
    wall_s = time.perf_counter() - started

    where = opts.target or (
        f"{opts.workers} local workers" if opts.workers > 1 else "in-process"
    )
    print(
        f"{label}: {dfg.num_nodes} ops -> "
        f"{result.num_partitions} parts "
        f"(cut {result.partition.cut_size}) via {where}"
    )
    for round_index, gap in enumerate(result.gaps, start=1):
        print(f"  round {round_index}: gap {gap}")
    print(
        f"stitched: {result.schedule.length} steps "
        f"(critical path {result.schedule.length - result.gaps[-1]}), "
        f"{result.rounds} rounds, {result.jobs} jobs "
        f"({result.cached_jobs} cached), "
        f"{len(result.keys)} unique keys, {wall_s:.2f}s"
    )

    if opts.json:
        write_json(
            opts.json,
            {
                "format": REPORT_FORMAT,
                "graph": label,
                "num_ops": dfg.num_nodes,
                "resources": opts.resources,
                "algorithm": opts.algorithm,
                "partitions": result.num_partitions,
                "cut_size": result.partition.cut_size,
                "rounds": result.rounds,
                "gaps": list(result.gaps),
                "length": result.schedule.length,
                "jobs": result.jobs,
                "cached_jobs": result.cached_jobs,
                "unique_keys": len(result.keys),
                "keys": list(result.keys),
                "wall_s": wall_s,
            },
        )
    return 0
