"""Retry budgets and deadline budgets.

The two halves of "how long may this request keep trying":

- :class:`RetryPolicy` answers *how many* attempts and *how long to
  wait* between them (exponential envelope, decorrelated jitter).
- :class:`Deadline` answers *when to stop entirely*, regardless of how
  many attempts remain — and serializes itself into the
  ``X-Repro-Deadline-Ms`` header so every downstream hop inherits the
  *remaining* budget, not the original one.

Both take injectable clocks/RNGs so tests are deterministic.

>>> policy = RetryPolicy(max_attempts=2, base_s=0.5, jitter=False)
>>> policy.allows(1), policy.allows(2)
(True, False)
>>> clock = iter([0.0, 0.25, 0.25]).__next__
>>> deadline = Deadline.from_ms(1000, clock=clock)
>>> deadline.clamp(60.0)
0.75
>>> deadline.header_value()
'750'
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, Mapping, Optional

from repro.errors import ConfigError, check_duration

#: Total tries a :class:`RetryPolicy` allows unless told otherwise.
DEFAULT_MAX_ATTEMPTS = 3

#: The hop-by-hop budget header.  A client (or the router, on the
#: client's behalf) sends the *remaining* budget in integer
#: milliseconds; every hop subtracts its own elapsed time before
#: forwarding.  Header names are case-insensitive on the wire; the
#: transport lowercases them on receipt.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"

_HEADER_KEY = DEADLINE_HEADER.lower()


class RetryPolicy:
    """Bounded attempts with exponential backoff and jitter.

    ``max_attempts`` counts *total* tries, not retries; ``0`` means
    unbounded (the caller bounds the walk some other way — the
    dispatcher's preference list, a deadline).  Backoff for attempt
    ``n`` (1-based) grows as ``base_s * 2**(n-1)`` capped at
    ``max_backoff_s``; with ``jitter`` on, the actual delay is drawn
    uniformly from ``[base_s, 3 * envelope]`` (decorrelated jitter),
    so a cohort of callers that failed together does not retry
    together.

    >>> p = RetryPolicy(max_attempts=0, base_s=0.1, jitter=False)
    >>> p.allows(99)
    True
    >>> p.backoff_s(3)
    0.4
    """

    def __init__(
        self,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        base_s: float = 0.05,
        max_backoff_s: float = 2.0,
        jitter: bool = True,
        rng: Optional[random.Random] = None,
    ):
        if max_attempts < 0:
            raise ConfigError(
                f"max_attempts must be >= 0, got {max_attempts}"
            )
        check_duration("base_s", base_s)
        check_duration("max_backoff_s", max_backoff_s)
        self.max_attempts = max_attempts
        self.base_s = base_s
        self.max_backoff_s = max(base_s, max_backoff_s)
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random()

    def allows(self, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) may run."""
        return self.max_attempts == 0 or attempt <= self.max_attempts

    def backoff_s(self, attempt: int) -> float:
        """Delay to wait *after* failed attempt ``attempt`` (1-based).
        """
        envelope = min(
            self.max_backoff_s, self.base_s * (2 ** max(0, attempt - 1))
        )
        if not self.jitter:
            return envelope
        high = min(self.max_backoff_s, 3.0 * envelope)
        return self._rng.uniform(self.base_s, max(self.base_s, high))


class Deadline:
    """A monotonic time budget, optionally unbounded.

    Minted once where a request enters the system and consulted (never
    reset) at every hop: ``clamp`` bounds per-exchange timeouts to the
    remaining budget, ``expired`` gates whether another attempt is
    worth starting, and ``headers`` re-serializes the *remaining*
    milliseconds for the next hop.

    >>> d = Deadline(None)
    >>> d.bounded, d.expired(), d.clamp(5.0), d.headers()
    (False, False, 5.0, {})
    """

    def __init__(
        self,
        budget_s: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ):
        self._clock = clock
        if budget_s is None:
            self._expires_at: Optional[float] = None
        else:
            self._expires_at = clock() + max(0.0, budget_s)

    @classmethod
    def from_ms(
        cls,
        budget_ms: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        if budget_ms is None:
            return cls(None, clock=clock)
        return cls(budget_ms / 1000.0, clock=clock)

    @classmethod
    def from_headers(
        cls,
        headers: Mapping[str, str],
        default_ms: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """Budget from ``X-Repro-Deadline-Ms``, else ``default_ms``.

        A malformed or negative header value is treated as absent
        rather than refused: deadlines are an optimization, and a
        client that garbles one should degrade to the server default,
        not lose its request.
        """
        raw = headers.get(_HEADER_KEY)
        if raw is None:
            raw = headers.get(DEADLINE_HEADER)
        if raw is not None:
            try:
                value = float(raw)
            except ValueError:
                value = -1.0
            if value >= 0:
                return cls.from_ms(value, clock=clock)
        return cls.from_ms(default_ms, clock=clock)

    @property
    def bounded(self) -> bool:
        return self._expires_at is not None

    def remaining_s(self) -> Optional[float]:
        """Seconds left (floored at 0), or None when unbounded."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        remaining = self.remaining_s()
        return remaining is not None and remaining <= 0.0

    def clamp(self, timeout_s: float) -> float:
        """``timeout_s`` bounded by the remaining budget."""
        remaining = self.remaining_s()
        if remaining is None:
            return timeout_s
        return min(timeout_s, remaining)

    def header_value(self) -> Optional[str]:
        """Remaining budget as integer milliseconds, or None."""
        remaining = self.remaining_s()
        if remaining is None:
            return None
        return str(int(remaining * 1000))

    def headers(self) -> Dict[str, str]:
        """The forwarding headers for the next hop ({} if unbounded).
        """
        value = self.header_value()
        if value is None:
            return {}
        return {DEADLINE_HEADER: value}
