"""Every number ``/metrics`` reports, declared once.

Each group maps a metric name to its kind, in ``/metrics`` order, for
one owner.  A ``counter`` only grows, and the dispatcher's ``cluster``
section sums it over the replicas that answered (:func:`cluster_sums`).
A ``gauge`` is a level sampled at snapshot time and is never summed.
What each metric means is documented once, as a row of a ``/metrics``
table in ``docs/OPERATIONS.md``.

Owners keep their metrics as plain attributes named after the
declaration, so a hot-path update stays ``metrics.computed += 1``:
:func:`zero` creates the attributes and :func:`read` snapshots them.
Locking stays with each owner — :func:`read` takes none.

>>> class Crashes:
...     pass
>>> crashes = Crashes()
>>> zero(crashes, ENGINE)
>>> crashes.worker_crashes += 1
>>> read(crashes, ENGINE)
{'worker_crashes': 1, 'quarantined_jobs': 0}
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Mapping, Sequence, Tuple

COUNTER = "counter"
GAUGE = "gauge"

#: :class:`~repro.serve.metrics.ServiceMetrics` — one serve replica.
SERVE = {
    "requests": COUNTER,
    "schedule_requests": COUNTER,
    "computed": COUNTER,
    "cache_hits": COUNTER,
    "coalesced": COUNTER,
    "rejected": COUNTER,
    "errors": COUNTER,
    "batches": COUNTER,
    "peer_served": COUNTER,
    "peer_received": COUNTER,
    "hier_jobs": COUNTER,
    "hier_rounds_total": COUNTER,
    "hier_partitions_total": COUNTER,
    "scenario_memory_jobs": COUNTER,
    "scenario_io_jobs": COUNTER,
    "scenario_reliability_jobs": COUNTER,
    "improve_jobs": COUNTER,
    "improved_entries": COUNTER,
    "proved_optimal": COUNTER,
    "sse_clients": GAUGE,
    "in_flight": GAUGE,
    "queue_depth": GAUGE,
    "compute_seconds_total": COUNTER,
}

#: :meth:`repro.store.ClusterStore.peer_stats` — the peer tier's
#: client side, merged into a peered replica's ``/metrics``.
STORE = {
    "peers": GAUGE,
    "peer_hits": COUNTER,
    "peer_misses": COUNTER,
    "peer_fetch_errors": COUNTER,
    "published": COUNTER,
    "publish_errors": COUNTER,
    "publish_dropped": COUNTER,
    "publish_pending": GAUGE,
    "peer_breaker_opened": COUNTER,
    "peer_breaker_closed": COUNTER,
    "peer_breakers_open": GAUGE,
}

#: :meth:`repro.engine.BatchEngine.crash_stats` — worker-crash
#: recovery, merged into every replica's ``/metrics``.
ENGINE = {
    "worker_crashes": COUNTER,
    "quarantined_jobs": COUNTER,
}

#: :class:`~repro.dispatch.metrics.DispatchMetrics` — one router.
ROUTER = {
    "requests": COUNTER,
    "schedule_requests": COUNTER,
    "routed": COUNTER,
    "coalesced": COUNTER,
    "retried": COUNTER,
    "failed_over": COUNTER,
    "failed": COUNTER,
    "errors": COUNTER,
    "ejected": COUNTER,
    "readmitted": COUNTER,
    "stream_broken": COUNTER,
    "deadline_exhausted": COUNTER,
    "breaker_opened": COUNTER,
    "breaker_closed": COUNTER,
    "in_flight": GAUGE,
}

#: :meth:`LatencyWindow.snapshot`, on replicas and routers alike.
LATENCY = {
    "latency_p50_ms": GAUGE,
    "latency_p95_ms": GAUGE,
    "latency_samples": GAUGE,
}

#: The groups a replica's ``/metrics`` carries at top level.
REPLICA_GROUPS = (SERVE, STORE, ENGINE)

#: Every declaration; ``docs/OPERATIONS.md`` has one row per name.
GROUPS = (*REPLICA_GROUPS, ROUTER, LATENCY)

#: How many recent request latencies feed the percentile estimates.
LATENCY_WINDOW = 1024


def zero(owner: object, group: Mapping[str, str]) -> None:
    """Start ``group``'s metrics at 0 as attributes of ``owner``.

    A name ``owner``'s class already defines (a property deriving the
    value from other state) is left to the class.
    """
    for name in group:
        if not hasattr(type(owner), name):
            setattr(owner, name, 0)


def read(owner: object, group: Mapping[str, str]) -> Dict[str, float]:
    """``group``'s current values on ``owner``, in declaration order."""
    return {name: getattr(owner, name) for name in group}


def cluster_sums(snapshots: Iterable[Mapping]) -> Dict[str, float]:
    """Every replica counter summed over ``snapshots``.

    ``snapshots`` are the ``/metrics`` documents of the replicas that
    answered; a replica lacking a counter (no peer tier) adds 0.
    """
    snapshots = list(snapshots)
    return {
        name: sum(snapshot.get(name, 0) for snapshot in snapshots)
        for group in REPLICA_GROUPS
        for name, kind in group.items()
        if kind == COUNTER
    }


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 for an empty list)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


class LatencyWindow:
    """The ``size`` most recent durations (seconds) and their
    percentiles; ``observe(seconds)`` records one.  Not locked: each
    owner observes from one thread."""

    def __init__(self, size: int = LATENCY_WINDOW) -> None:
        self._samples: deque = deque(maxlen=size)
        self.observe = self._samples.append

    def p50_p95_ms(self) -> Tuple[float, float]:
        window = list(self._samples)
        return (
            percentile(window, 0.50) * 1000.0,
            percentile(window, 0.95) * 1000.0,
        )

    def snapshot(self) -> Dict[str, float]:
        """The :data:`LATENCY` gauges."""
        p50, p95 = self.p50_p95_ms()
        return dict(zip(LATENCY, (p50, p95, len(self._samples))))
