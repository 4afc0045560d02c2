"""``repro serve``: run one scheduling replica from the command line.

See ``repro.engine.cli`` for the conventions every command follows
(exit codes, defaults taken from the library, range checks left to the
constructors).
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.engine.cli import add_cache_entries, add_workers, check_cache_opts
from repro.serve import coalescer, http, server
from repro.store import cluster, peers


def add_listener(parser: argparse.ArgumentParser) -> None:
    """The ``HttpServerCore`` flags ``serve`` and ``dispatch`` share."""
    parser.add_argument(
        "--host",
        default=http.DEFAULT_HOST,
        help="bind address (default %(default)s)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        metavar="N",
        help="listen port; 0 picks a free one (default %(default)s)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=http.DEFAULT_DRAIN_TIMEOUT_S,
        metavar="S",
        help=(
            "graceful-shutdown wait for in-flight work "
            "(default %(default)ss)"
        ),
    )


def cmd_serve(args: Sequence[str]) -> int:
    """Run the async scheduling service over the batch engine."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve POST /schedule, GET /healthz, GET /metrics, and the "
            "cluster tier's GET/POST /cache/<key> over a shared batch "
            "engine, with request coalescing, micro-batching, and a "
            "bounded queue (429 on overload)."
        ),
    )
    add_listener(parser)
    add_workers(parser)
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="directory for the on-disk result store (off by default)",
    )
    add_cache_entries(parser)
    parser.add_argument(
        "--max-queue",
        type=int,
        default=server.DEFAULT_MAX_QUEUE,
        metavar="N",
        help=(
            "schedule requests in flight before 429s start "
            "(default %(default)s)"
        ),
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=coalescer.DEFAULT_MAX_BATCH,
        metavar="N",
        help=(
            "flush a micro-batch at this many unique jobs "
            "(default %(default)s)"
        ),
    )
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=coalescer.DEFAULT_BATCH_WINDOW_MS,
        metavar="MS",
        help=(
            "flush a non-full micro-batch after this wait; only misses "
            "wait, memory-tier hits answer at once (default %(default)s)"
        ),
    )
    parser.add_argument(
        "--peer",
        action="append",
        metavar="HOST:PORT",
        help=(
            "another replica in the cluster tier; repeat per peer. "
            "Local cache misses peer-fetch before computing, fresh "
            "computes publish to ring successors"
        ),
    )
    parser.add_argument(
        "--peer-timeout",
        type=float,
        default=peers.DEFAULT_PEER_TIMEOUT_S,
        metavar="S",
        help=(
            "per-exchange bound for peer fetches/publishes; a slower "
            "peer counts as a miss (default %(default)s)"
        ),
    )
    parser.add_argument(
        "--publish",
        choices=list(cluster.PUBLISH_MODES),
        default=cluster.DEFAULT_PUBLISH,
        help=(
            "how fresh computes reach peers: async (background "
            "thread), sync (write-through), off (fetch-only replica); "
            "default %(default)s"
        ),
    )
    parser.add_argument(
        "--publish-fanout",
        type=int,
        default=cluster.DEFAULT_PUBLISH_FANOUT,
        metavar="N",
        help=(
            "ring successors that receive each fresh entry; 0 means "
            "every peer (default %(default)s; 1 is the key's first "
            "failover target)"
        ),
    )
    opts = parser.parse_args(list(args))
    check_cache_opts(opts.cache_dir, opts.cache_entries, "--cache-dir")
    return server.run_server(
        host=opts.host,
        port=opts.port,
        workers=opts.workers,
        cache_dir=opts.cache_dir,
        max_cache_entries=opts.cache_entries,
        max_queue=opts.max_queue,
        max_batch=opts.max_batch,
        batch_window_ms=opts.batch_window_ms,
        drain_timeout_s=opts.drain_timeout,
        peers=opts.peer or (),
        peer_timeout_s=opts.peer_timeout,
        publish=opts.publish,
        publish_fanout=opts.publish_fanout,
    )
