"""Router-side counters for the dispatcher's ``GET /metrics``.

These count what the *router* did — routing, coalescing, retries,
failovers, membership changes.  What the *replicas* did (computes,
cache hits, batch flushes) is scraped live from each replica's own
``/metrics`` at snapshot time and aggregated next to these counters;
see :meth:`repro.dispatch.router.DispatchRouter.cluster_metrics`.
The metrics themselves are declared in :data:`repro.metrics.ROUTER`.

Everything here is mutated from the router's event loop, so plain
attributes suffice — no locks.
"""

from __future__ import annotations

from typing import Any, Dict

from repro import metrics


class DispatchMetrics:
    """Counters and gauges for one router process."""

    def __init__(self) -> None:
        metrics.zero(self, metrics.ROUTER)
        self.per_replica: Dict[str, Dict[str, int]] = {}
        self._latency = metrics.LatencyWindow()

    def observe_latency(self, seconds: float) -> None:
        self._latency.observe(seconds)

    def replica_entry(self, name: str) -> Dict[str, int]:
        entry = self.per_replica.get(name)
        if entry is None:
            entry = {"routed": 0, "failures": 0}
            self.per_replica[name] = entry
        return entry

    def record_routed(self, name: str) -> None:
        self.routed += 1
        self.replica_entry(name)["routed"] += 1

    def record_failure(self, name: str) -> None:
        self.replica_entry(name)["failures"] += 1

    def snapshot(self) -> Dict[str, Any]:
        """The router section of ``/metrics`` (JSON-safe dict)."""
        return {
            **metrics.read(self, metrics.ROUTER),
            **self._latency.snapshot(),
            "per_replica": {
                name: dict(entry)
                for name, entry in sorted(self.per_replica.items())
            },
        }
