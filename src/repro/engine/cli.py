"""``repro batch`` and ``repro bench``, plus the flag helpers that the
engine-backed commands (``serve``, ``hier``, ``improve``) share.

Every entry point returns a process exit code (0 ok, 1 regression,
2 usage/library error) and never leaks tracebacks for anticipated
failures — ``repro.__main__`` converts
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
from repro.experiments.tables import render_table
from repro.graphs.registry import graph_names
from repro.scheduling.resources import DEFAULT_RESOURCES


def add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_WORKERS,
        metavar="N",
        help="engine worker processes; 1 = in-process (default %(default)s)",
    )


def add_cache_entries(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-entries",
        type=int,
        metavar="N",
        help=(
            "bound the result store to N entries with LRU eviction "
            "(default: unbounded)"
        ),
    )


def add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the machine-readable report to PATH",
    )


def write_json(path: str, payload: dict) -> None:
    """Write one ``--json`` report and say so on stdout."""
    try:
        Path(path).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise ReproError(f"cannot write report {path}: {exc}")
    print(f"wrote {path}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The flags ``batch`` and ``bench`` share."""
    add_workers(parser)
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help=(
            "directory for the on-disk result store, sharded by key "
            "prefix (off by default)"
        ),
    )
    add_cache_entries(parser)
    parser.add_argument(
        "--artifacts",
        action="store_true",
        help=(
            "capture the full schedule (op -> step/unit plus soft-"
            "scheduling insertions) in each result's artifact payload"
        ),
    )
    add_json(parser)


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


def check_cache_opts(
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
    check_cache_opts(opts.cache, opts.cache_entries, "--cache")

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
        write_json(
            opts.json,
            {
                "format": "repro-batch-v1",
                "results": [result.to_dict() for result in results],
            },
        )
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
    check_cache_opts(opts.cache, opts.cache_entries, "--cache")

    report = bench_mod.run_suite(
        workers=opts.workers,
        cache_dir=opts.cache,
        capture_schedules=opts.artifacts,
        max_cache_entries=opts.cache_entries,
    )
    print(report.table())
    print(f"suite wall time: {report.wall_time_s:.2f}s")

    if opts.json:
        write_json(opts.json, report.to_dict())

    if opts.check:
        baseline = bench_mod.load_report(opts.check)
        problems = bench_mod.check_report(report, baseline)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"check against {opts.check}: ok")
    return 0
