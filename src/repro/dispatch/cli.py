"""``repro dispatch``: run the consistent-hash router from the command
line, in front of ``repro serve`` replicas.

See ``repro.engine.cli`` for the conventions every command follows.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.dispatch import router
from repro.errors import ReproError
from repro.resilience import RetryPolicy, breaker
from repro.serve.cli import add_listener


def cmd_dispatch(args: Sequence[str]) -> int:
    """Run the consistent-hash router over ``repro serve`` replicas."""
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
    add_listener(parser)
    parser.add_argument(
        "--replica",
        action="append",
        metavar="HOST:PORT",
        help="one replica address; repeat for each replica (required)",
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
    opts = parser.parse_args(list(args))
    if not opts.replica:
        raise ReproError(
            "pass at least one --replica HOST:PORT to dispatch to"
        )
    return router.run_router(
        replicas=opts.replica,
        host=opts.host,
        port=opts.port,
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
