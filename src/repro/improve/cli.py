"""``repro improve``: anytime improvement from the command line.

Runs one :class:`~repro.improve.improver.Improver` against a local
engine cache: seeds from the cached FDS/anytime entry, searches under
the given node/deadline budget, and rewrites the canonical
``bnb-anytime`` cache entry whenever the incumbent improves.  With a
shared ``--cache-dir`` this is how an operator (or a cron job) chips
away at open instances between serving bursts; re-running resumes
from the stored checkpoint instead of restarting.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.engine.batch import BatchEngine
from repro.engine.cli import add_json, write_json
from repro.improve.improver import Improver
from repro.scheduling.bnb import DEFAULT_SLICE_NODES
from repro.scheduling.resources import DEFAULT_RESOURCES

REPORT_FORMAT = "repro-improve-v1"


def cmd_improve(args: Sequence[str]) -> int:
    """Entry point for ``repro improve``."""
    parser = argparse.ArgumentParser(
        prog="repro improve",
        description=(
            "Anytime-improve a graph's cached schedule: seed from the "
            "cached result, run interruptible branch-and-bound under a "
            "budget, and rewrite the cache entry in place whenever the "
            "incumbent improves (terminating with a proof when the "
            "search closes)."
        ),
    )
    parser.add_argument(
        "graph",
        metavar="BENCH",
        help="registry benchmark name (e.g. HAL, FIR, AR)",
    )
    parser.add_argument(
        "--resources",
        "-r",
        default=DEFAULT_RESOURCES,
        metavar="SPEC",
        help="resource constraint (default %(default)s)",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        metavar="N",
        help=(
            "node-expansion budget for this run (default unlimited: "
            "run until the optimum is proved)"
        ),
    )
    parser.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget for this run (default unlimited)",
    )
    parser.add_argument(
        "--slice-nodes",
        type=int,
        default=DEFAULT_SLICE_NODES,
        metavar="N",
        help=(
            "nodes per interruptible slice between budget checks and "
            "rewrites (default %(default)s)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "on-disk result cache to improve (default: a fresh "
            "in-memory cache, useful only for one-off proofs)"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-event progress lines",
    )
    add_json(parser)
    opts = parser.parse_args(list(args))

    engine = BatchEngine(
        cache_dir=opts.cache_dir, capture_schedules=True
    )
    improver = Improver(
        engine,
        opts.graph,
        opts.resources,
        slice_nodes=opts.slice_nodes,
    )
    label = improver.spec.graph.describe()
    print(
        f"{label}: seed {improver.solver.seed_length}, "
        f"lower bound {improver.solver.lower_bound}"
        f"{' (resuming from checkpoint)' if improver.resumed else ''}"
    )

    def emit(event) -> None:
        if opts.quiet:
            return
        print(
            f"  {event['type']}: length {event['length']} "
            f"bound {event['bound']} ({event['nodes']} nodes, "
            f"phase {event['phase']})"
        )

    summary = improver.run(
        nodes=opts.nodes,
        deadline_ms=(
            opts.deadline * 1000 if opts.deadline is not None else None
        ),
        on_event=emit,
    )

    state = (
        "proved optimal"
        if summary["proved"]
        else f"best known (bound {summary['lower_bound']})"
    )
    print(
        f"{label}: {summary['length']} steps, {state}; "
        f"{summary['nodes']} nodes, {summary['rewrites']} rewrites"
    )

    if opts.json:
        write_json(opts.json, {"format": REPORT_FORMAT, **summary})
    return 0
