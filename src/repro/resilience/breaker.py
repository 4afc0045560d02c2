"""Per-target circuit breakers.

A breaker sits in front of one remote target (a replica, a peer) and
turns repeated failures into *absence of traffic* instead of repeated
timeouts: after ``failure_threshold`` consecutive failures it opens
and ``allow()`` answers False; after ``reset_timeout_s`` it lets
exactly one probe through (half-open); the probe's outcome either
closes it again or re-opens it for another quiet period.

The dispatcher wires its health-probe loop into the same breaker the
request path consults, so readmission is probe-driven rather than
request-driven — clients never pay for the discovery that a target is
back.

>>> clock = [0.0]
>>> b = CircuitBreaker(failure_threshold=2, reset_timeout_s=5.0,
...                    clock=lambda: clock[0])
>>> b.allow(), b.state
(True, 'closed')
>>> b.record_failure(); b.record_failure()
>>> b.allow(), b.state
(False, 'open')
>>> clock[0] = 6.0
>>> b.allow(), b.state            # exactly one probe slips through
(True, 'half-open')
>>> b.allow()
False
>>> b.record_success()
>>> b.allow(), b.state
(True, 'closed')
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from repro.errors import ConfigError, check_duration

#: Consecutive failures that open a breaker.
DEFAULT_FAILURE_THRESHOLD = 3

#: Seconds an open breaker waits before admitting a probe.
DEFAULT_RESET_TIMEOUT_S = 5.0

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker with half-open single-probe gate.

    Not thread-safe by itself: callers either use it from one event
    loop (the router) or under their own lock (the cluster store).
    """

    def __init__(
        self,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        reset_timeout_s: float = DEFAULT_RESET_TIMEOUT_S,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ConfigError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        check_duration("reset_timeout_s", reset_timeout_s)
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self.state = CLOSED
        self.failures = 0
        self.opened_total = 0
        self.closed_total = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    def allow(self) -> bool:
        """May a request be sent to this target right now?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            elapsed = self._clock() - self._opened_at
            if elapsed >= self.reset_timeout_s:
                self.state = HALF_OPEN
                self._probe_inflight = True
                return True
            return False
        # Half-open: one probe at a time.
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def record_success(self) -> None:
        self.failures = 0
        self._probe_inflight = False
        if self.state != CLOSED:
            self.state = CLOSED
            self.closed_total += 1

    def record_failure(self) -> None:
        self._probe_inflight = False
        if self.state == HALF_OPEN:
            self._open()
            return
        if self.state == CLOSED:
            self.failures += 1
            if self.failures >= self.failure_threshold:
                self._open()

    def _open(self) -> None:
        self.state = OPEN
        self.failures = self.failure_threshold
        self.opened_total += 1
        self._opened_at = self._clock()

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe state for /metrics."""
        return {
            "state": self.state,
            "failures": self.failures,
            "opened": self.opened_total,
            "closed": self.closed_total,
        }
