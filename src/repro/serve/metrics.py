"""Service counters and latency percentiles for ``/metrics``.

Everything here is mutated from the server's event loop (request
handlers and flush callbacks all run on the loop thread), so plain
attributes suffice — no locks.  The metrics themselves are declared in
:data:`repro.metrics.SERVE` and documented in ``docs/OPERATIONS.md``.
"""

from __future__ import annotations

from typing import Any, Dict

from repro import metrics

__all__ = ["ServiceMetrics"]

#: Per-algorithm compute-time window (fresh computations only), sized
#: smaller than the request window since computes are the rarer event.
COMPUTE_WINDOW = 256


class ServiceMetrics:
    """Counters, gauges, and a latency window for one server process.

    The cluster tier's *client-side* counters (``peer_hits``,
    ``published``, ...) live on the :class:`~repro.store.ClusterStore`
    itself and are merged into the ``/metrics`` snapshot by the server.
    """

    def __init__(self) -> None:
        metrics.zero(self, metrics.SERVE)
        self._latency = metrics.LatencyWindow()
        self._compute: Dict[str, Dict[str, Any]] = {}

    def observe_latency(self, seconds: float) -> None:
        self._latency.observe(seconds)

    def record_compute(self, algorithm: str, seconds: float) -> None:
        """Account one fresh scheduler computation to ``algorithm``."""
        self.compute_seconds_total += seconds
        entry = self._compute.get(algorithm)
        if entry is None:
            entry = {
                "computed": 0,
                "seconds_total": 0.0,
                "window": metrics.LatencyWindow(COMPUTE_WINDOW),
            }
            self._compute[algorithm] = entry
        entry["computed"] += 1
        entry["seconds_total"] += seconds
        entry["window"].observe(seconds)

    def record_hier(self, rounds: int, partitions: int) -> None:
        """Account one fresh hierarchical job's orchestration meta."""
        self.hier_jobs += 1
        self.hier_rounds_total += int(rounds)
        self.hier_partitions_total += int(partitions)

    def record_scenario(self, mode: str) -> None:
        """Account one fresh computation under a constraint scenario.

        Unknown modes are ignored rather than crashing the flush
        callback: the counter exists to make scenario traffic visible,
        not to re-validate artifacts the engine already produced.
        """
        field = f"scenario_{mode}_jobs"
        if field in metrics.SERVE:
            setattr(self, field, getattr(self, field) + 1)

    def snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` payload (plain JSON-safe dict)."""
        algorithms = {}
        for algorithm, entry in sorted(self._compute.items()):
            p50, p95 = entry["window"].p50_p95_ms()
            algorithms[algorithm] = {
                "computed": entry["computed"],
                "seconds_total": entry["seconds_total"],
                "compute_p50_ms": p50,
                "compute_p95_ms": p95,
            }
        return {
            **metrics.read(self, metrics.SERVE),
            **self._latency.snapshot(),
            "algorithms": algorithms,
        }
