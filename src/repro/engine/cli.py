"""``python -m repro {batch,bench,serve,dispatch}`` commands.

Kept separate from :mod:`repro.__main__` so the argparse plumbing for
the engine lives next to the engine; ``__main__`` holds the only
command table.  Every entry point returns a process exit code (0 ok,
1 regression, 2 usage/library error) and never leaks tracebacks for
anticipated failures — ``__main__`` converts
:class:`~repro.errors.ReproError` into exit code 2.

Each flag's default is the library constant of the parameter it feeds,
and its range is checked by the constructor that consumes it (raising
:class:`~repro.errors.ConfigError`); the parsers here only check rules
that span flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.engine import bench as bench_mod
from repro.engine.algorithms import (
    DEFAULT_ALGORITHM,
    algorithm_ids,
    canonical_algorithm,
)
from repro.engine.batch import DEFAULT_WORKERS, BatchEngine
from repro.engine.job import GraphSpec
from repro.engine.sweeps import (
    DEFAULT_BASE_SEED,
    DEFAULT_CONSTRAINTS,
    cross,
    random_dag_sweep,
)
from repro.graphs.registry import graph_names
from repro.scheduling.resources import DEFAULT_RESOURCES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_WORKERS,
        metavar="N",
        help="worker processes; 1 = in-process (default %(default)s)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help=(
            "directory for the on-disk result store, sharded by key "
            "prefix (off by default)"
        ),
    )
    parser.add_argument(
        "--cache-entries",
        type=int,
        metavar="N",
        help=(
            "bound the result store to N entries with LRU eviction "
            "(default: unbounded)"
        ),
    )
    parser.add_argument(
        "--artifacts",
        action="store_true",
        help=(
            "capture the full schedule (op -> step/unit plus soft-"
            "scheduling insertions) in each result's artifact payload"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write machine-readable results to PATH",
    )


def _probe_cache_dir(cache_dir: str) -> None:
    """Fail fast — before any job computes — on an unwritable store.

    The library-level store tolerates read-only media for *reads*,
    but a batch/bench/serve run must write fresh results; discovering
    that mid-sweep wastes the whole compute.  One created-and-unlinked
    probe file settles it up front, and failure is a
    :class:`ReproError` (clean exit code 2), never a traceback.
    """
    path = Path(cache_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ReproError(f"cannot create cache directory {path}: {exc}")
    try:
        fd, probe = tempfile.mkstemp(
            dir=str(path), prefix=".writable-", suffix=".probe"
        )
        os.close(fd)
        os.unlink(probe)
    except OSError as exc:
        raise ReproError(
            f"cache directory {path} is not writable: {exc}"
        )


def _check_cache_opts(
    cache_dir: Optional[str], cache_entries: Optional[int], flag: str
) -> None:
    """Validate the store options before any scheduling work starts;
    ``flag`` names the cache-directory option in messages."""
    if cache_entries is not None and not cache_dir:
        raise ReproError(
            "--cache-entries bounds the on-disk result store; "
            f"pass {flag} DIR along with it"
        )
    if cache_dir:
        _probe_cache_dir(cache_dir)


def _parse_random(text: str) -> tuple:
    """Parse a ``SIZExCOUNT`` family spec (e.g. ``50x6``)."""
    size_text, sep, count_text = text.partition("x")
    try:
        size = int(size_text)
        count = int(count_text) if sep else 1
    except ValueError:
        raise ReproError(
            f"malformed --random spec {text!r}; expected SIZE or SIZExCOUNT"
            " (e.g. 50x6)"
        )
    return size, count


def cmd_batch(args: Sequence[str]) -> int:
    """Run an ad-hoc sweep through the batch engine."""
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description=(
            "Schedule many (graph, resources, algorithm) jobs through "
            "the parallel batch engine."
        ),
    )
    parser.add_argument(
        "graphs",
        nargs="*",
        metavar="BENCH",
        help=(
            "registry benchmark names (default: every registered "
            "benchmark, unless --random is given)"
        ),
    )
    parser.add_argument(
        "--resources",
        "-r",
        action="append",
        metavar="SPEC",
        help=(
            "resource constraint, repeatable (default: "
            f'"{DEFAULT_RESOURCES}")'
        ),
    )
    parser.add_argument(
        "--algorithms",
        "-a",
        action="append",
        metavar="ALGO",
        help=(
            "algorithm id or alias, repeatable (default: "
            f"{DEFAULT_ALGORITHM}); known: " + ", ".join(algorithm_ids())
        ),
    )
    parser.add_argument(
        "--random",
        action="append",
        metavar="SIZExCOUNT",
        help="add a seeded random-DAG family, e.g. --random 50x6",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_BASE_SEED,
        metavar="N",
        help="base seed for --random families (default %(default)s)",
    )
    parser.add_argument(
        "--paper-only",
        action="store_true",
        help="with no BENCH arguments, sweep only the paper benchmarks",
    )
    parser.add_argument(
        "--gaps",
        action="store_true",
        help="record optimality gap vs a proved optimum on small graphs",
    )
    _add_common(parser)
    opts = parser.parse_args(list(args))
    _check_cache_opts(opts.cache, opts.cache_entries, "--cache")

    constraints = opts.resources or DEFAULT_CONSTRAINTS
    algorithms = [
        canonical_algorithm(algo)
        for algo in (opts.algorithms or [DEFAULT_ALGORITHM])
    ]

    jobs = []
    if opts.graphs or not opts.random:
        names = [name.upper() for name in opts.graphs] or graph_names(
            paper_only=opts.paper_only
        )
        jobs.extend(
            cross(
                [GraphSpec.registry(name) for name in names],
                constraints,
                algorithms,
            )
        )
    for spec_text in opts.random or []:
        size, count = _parse_random(spec_text)
        jobs.extend(
            random_dag_sweep(
                sizes=(size,),
                count=count,
                base_seed=opts.seed,
                constraints=constraints,
                algorithms=algorithms,
            )
        )

    engine = BatchEngine(
        workers=opts.workers,
        cache_dir=opts.cache,
        compute_gaps=opts.gaps,
        capture_schedules=opts.artifacts,
        max_cache_entries=opts.cache_entries,
    )
    results = engine.run(jobs)

    rows = [
        (
            result.graph,
            result.algorithm,
            result.resources,
            result.length,
            "" if result.gap is None else result.gap,
            f"{result.runtime_s * 1000:.2f}",
            "hit" if result.cached else "",
        )
        for result in results
    ]
    from repro.experiments.tables import render_table

    print(
        render_table(
            ("graph", "algorithm", "resources", "length", "gap", "ms",
             "cache"),
            rows,
            title=f"batch: {len(results)} jobs",
        )
    )
    stats = engine.cache.stats()
    print(
        f"cache: {stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['stored']} stored, {stats['evictions']} evicted"
    )
    # Only report the store view when the index is already paid for
    # (bounded runs scan at open); an unbounded run on a huge store
    # should not stat every entry just to print one line.
    if opts.cache and engine.cache.scanned:
        shards = engine.cache.index()
        entries = sum(s["entries"] for s in shards.values())
        print(
            f"store: {entries} entries in {len(shards)} shards, "
            f"{engine.cache.total_bytes()} bytes"
        )
    if opts.json:
        payload = {
            "format": "repro-batch-v1",
            "results": [result.to_dict() for result in results],
        }
        try:
            Path(opts.json).write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            raise ReproError(f"cannot write results {opts.json}: {exc}")
        print(f"wrote {opts.json}")
    return 0


def cmd_bench(args: Sequence[str]) -> int:
    """Run the unified benchmark suite; optionally gate on a baseline."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Run the benchmark suite (five graphs x four schedulers) "
            "through the batch engine."
        ),
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help=(
            "compare against a baseline BENCH_results.json; exit 1 on "
            "schedule-length regression or >2x runtime blowup"
        ),
    )
    _add_common(parser)
    opts = parser.parse_args(list(args))
    _check_cache_opts(opts.cache, opts.cache_entries, "--cache")

    report = bench_mod.run_suite(
        workers=opts.workers,
        cache_dir=opts.cache,
        capture_schedules=opts.artifacts,
        max_cache_entries=opts.cache_entries,
    )
    print(report.table())
    print(f"suite wall time: {report.wall_time_s:.2f}s")

    if opts.json:
        bench_mod.write_report(report, opts.json)
        print(f"wrote {opts.json}")

    if opts.check:
        baseline = bench_mod.load_report(opts.check)
        problems = bench_mod.check_report(report, baseline)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"check against {opts.check}: ok")
    return 0


def _add_listener(parser: argparse.ArgumentParser) -> None:
    """``--host``/``--port``, shared by ``serve`` and ``dispatch``."""
    from repro.serve import http

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


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``repro serve`` argument parser.

    A named builder (rather than inline construction in
    :func:`cmd_serve`) so the docs-sync test can assert that every
    flag documented in ``docs/OPERATIONS.md`` is actually accepted.
    """
    # The serving stack is imported here, not at module level, so that
    # batch and bench start without loading it.
    from repro.serve import coalescer, http, server
    from repro.store import cluster, peers

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve POST /schedule, GET /healthz, GET /metrics, and the "
            "cluster tier's GET/POST /cache/<key> over a shared batch "
            "engine, with request coalescing, micro-batching, and a "
            "bounded queue (429 on overload)."
        ),
    )
    _add_listener(parser)
    parser.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_WORKERS,
        metavar="N",
        help="engine worker processes; 1 = in-process (default %(default)s)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="directory for the on-disk result store (off by default)",
    )
    parser.add_argument(
        "--cache-entries",
        type=int,
        metavar="N",
        help="bound the result store to N entries with LRU eviction",
    )
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
        "--drain-timeout",
        type=float,
        default=http.DEFAULT_DRAIN_TIMEOUT_S,
        metavar="S",
        help=(
            "graceful-shutdown wait for in-flight jobs "
            "(default %(default)ss)"
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
    return parser


def cmd_serve(args: Sequence[str]) -> int:
    """Run the async scheduling service over the batch engine."""
    parser = build_serve_parser()
    opts = parser.parse_args(list(args))
    _check_cache_opts(opts.cache_dir, opts.cache_entries, "--cache-dir")

    from repro.serve.server import run_server

    return run_server(
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


def build_dispatch_parser() -> argparse.ArgumentParser:
    """The ``repro dispatch`` argument parser (see
    :func:`build_serve_parser` for why this is a named builder)."""
    from repro.dispatch import ring, router
    from repro.resilience import breaker
    from repro.serve import http

    parser = argparse.ArgumentParser(
        prog="repro dispatch",
        description=(
            "Front N `repro serve` replicas with a consistent-hash "
            "router: requests are keyed by their engine cache key, "
            "routed to the replica that owns the key, coalesced when "
            "identical requests are already in flight, and failed "
            "over along the ring when a replica goes down."
        ),
    )
    _add_listener(parser)
    parser.add_argument(
        "--replica",
        action="append",
        metavar="HOST:PORT",
        help="one replica address; repeat for each replica (required)",
    )
    parser.add_argument(
        "--vnodes",
        type=int,
        default=ring.DEFAULT_VNODES,
        metavar="N",
        help=(
            "virtual nodes per replica on the hash ring "
            "(default %(default)s)"
        ),
    )
    parser.add_argument(
        "--health-interval",
        type=float,
        default=router.DEFAULT_HEALTH_INTERVAL_S,
        metavar="S",
        help="seconds between /healthz probe sweeps (default %(default)s)",
    )
    parser.add_argument(
        "--probe-timeout",
        type=float,
        default=router.DEFAULT_PROBE_TIMEOUT_S,
        metavar="S",
        help=(
            "per-probe timeout; slower counts as down "
            "(default %(default)s)"
        ),
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=router.DEFAULT_REQUEST_TIMEOUT_S,
        metavar="S",
        help=(
            "end-to-end timeout per proxied request "
            "(default %(default)s)"
        ),
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=http.DEFAULT_DRAIN_TIMEOUT_S,
        metavar="S",
        help=(
            "graceful-shutdown wait for in-flight requests "
            "(default %(default)ss)"
        ),
    )
    parser.add_argument(
        "--retry-attempts",
        type=int,
        default=router.DEFAULT_RETRY_ATTEMPTS,
        metavar="N",
        help=(
            "max replica attempts per request; 0 walks the whole "
            "ring preference (default %(default)s)"
        ),
    )
    parser.add_argument(
        "--retry-base-ms",
        type=float,
        default=router.DEFAULT_RETRY_BASE_S * 1000.0,
        metavar="MS",
        help=(
            "base backoff before the second attempt "
            "(default %(default)s)"
        ),
    )
    parser.add_argument(
        "--retry-max-ms",
        type=float,
        default=router.DEFAULT_RETRY_MAX_BACKOFF_S * 1000.0,
        metavar="MS",
        help=(
            "backoff cap across the failover walk (default %(default)s)"
        ),
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        metavar="MS",
        help=(
            "default per-request deadline budget; requests carrying "
            "an X-Repro-Deadline-Ms header override it (default: "
            "no deadline)"
        ),
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=breaker.DEFAULT_FAILURE_THRESHOLD,
        metavar="N",
        help=(
            "consecutive failures that open a replica's circuit "
            "breaker (default %(default)s)"
        ),
    )
    parser.add_argument(
        "--breaker-reset",
        type=float,
        default=breaker.DEFAULT_RESET_TIMEOUT_S,
        metavar="S",
        help=(
            "seconds an open breaker waits before admitting a "
            "half-open probe (default %(default)s)"
        ),
    )
    return parser


def cmd_dispatch(args: Sequence[str]) -> int:
    """Run the consistent-hash router over ``repro serve`` replicas."""
    parser = build_dispatch_parser()
    opts = parser.parse_args(list(args))
    if not opts.replica:
        raise ReproError(
            "pass at least one --replica HOST:PORT to dispatch to"
        )

    from repro.dispatch.router import run_router
    from repro.resilience import RetryPolicy

    return run_router(
        replicas=opts.replica,
        host=opts.host,
        port=opts.port,
        vnodes=opts.vnodes,
        health_interval_s=opts.health_interval,
        probe_timeout_s=opts.probe_timeout,
        request_timeout_s=opts.request_timeout,
        drain_timeout_s=opts.drain_timeout,
        retry=RetryPolicy(
            max_attempts=opts.retry_attempts,
            base_s=opts.retry_base_ms / 1000.0,
            max_backoff_s=opts.retry_max_ms / 1000.0,
        ),
        deadline_ms=opts.deadline_ms,
        breaker_threshold=opts.breaker_threshold,
        breaker_reset_s=opts.breaker_reset,
    )
