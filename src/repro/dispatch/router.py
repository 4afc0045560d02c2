"""The multi-replica job dispatcher (``repro dispatch``).

One asyncio process that fronts N ``repro serve`` replicas:

* ``POST /schedule`` bodies and ``GET /schedule/stream`` queries are
  validated with the exact same :func:`repro.serve.protocol.parse_request`
  / :func:`~repro.serve.protocol.parse_stream` the replicas use (bad
  requests bounce at the edge, before any network hop), the engine
  cache key is computed via :class:`repro.engine.keys.CacheKeyResolver`,
  and the request is proxied to the replica that owns that key on a
  consistent-hash ring — so each replica's sharded result store stays
  hot and a unique job is computed once *cluster-wide*.  Constraint
  scenarios (``scenario`` / ``io_schedule`` fields) need no routing
  special-casing: they are part of the spec's cache key, so two
  requests differing only in scenario shard to their own owners.
* Duplicate in-flight requests coalesce at the router: twins attach to
  the owner exchange's future and never open a connection of their own.
* Replica failures fail over: connection refused, a 5xx, and a
  drain-in-progress 503 all retry the next distinct ring position with
  the failed replica excluded; transport-level failures also eject the
  replica from the ring until a health probe readmits it.  ``POST
  /schedule`` and ``GET /schedule/stream`` share this one walk
  (``DispatchRouter._walk``).
* A background health loop probes every replica's ``/healthz`` and
  flips ring membership accordingly.
* ``GET /metrics`` aggregates: the router's own counters, each
  replica's live ``/metrics``, and cluster totals summed across them.

Determinism contract: the router *relays replica response bytes
verbatim* (see :mod:`repro.dispatch.proxy`), so a given request body
returns the same bytes whether the client asked a replica directly or
went through the dispatcher.  Volatile routing provenance travels in
headers (``X-Repro-Replica``, ``X-Repro-Attempts``).
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from typing import AsyncIterator, Callable, Dict, List, Optional, Set, Tuple

from repro.engine.keys import CacheKeyResolver
from repro.errors import ReproError, check_duration
from repro.metrics import cluster_sums
from repro.resilience import CircuitBreaker, Deadline, RetryPolicy
from repro.resilience.breaker import (
    DEFAULT_FAILURE_THRESHOLD,
    DEFAULT_RESET_TIMEOUT_S,
)
from repro.serve import protocol
from repro.serve.http import (
    DEFAULT_DRAIN_TIMEOUT_S,
    DEFAULT_HOST,
    Body,
    HttpServerCore,
    StreamBody,
    not_found_payload,
)
from repro.serve.stream import sse_frame
from repro.dispatch import proxy
from repro.dispatch.metrics import DispatchMetrics
from repro.dispatch.ring import HashRing
from repro.store.peers import parse_address

#: Seconds between health-probe sweeps over the replica set.
DEFAULT_HEALTH_INTERVAL_S = 1.0

#: Per-probe timeout (a replica slower than this counts as down).
DEFAULT_PROBE_TIMEOUT_S = 2.0

#: End-to-end timeout for one proxied /schedule exchange.
DEFAULT_REQUEST_TIMEOUT_S = 120.0

#: Replica attempts per request; 0 walks the whole ring preference.
DEFAULT_RETRY_ATTEMPTS = 0

#: Base backoff between failover attempts within one routed request.
DEFAULT_RETRY_BASE_S = 0.025

#: Backoff cap for the failover walk (one walk, short waits).
DEFAULT_RETRY_MAX_BACKOFF_S = 0.25

#: Relayed-stream bytes kept to judge whether the replica's SSE stream
#: reached a terminal frame before the connection ended.
_STREAM_TAIL_BYTES = 512

#: SSE event names that legitimately end an improvement stream.
_TERMINAL_EVENTS = (b"optimal", b"exhausted", b"error")

#: One answer to a client: status, body, extra headers.
Answer = Tuple[int, Body, Dict[str, str]]


def _stream_terminal(tail: bytes) -> bool:
    r"""Did ``tail`` end with a complete terminal SSE frame?

    >>> _stream_terminal(b'event: optimal\ndata: {"length":8}\n\n')
    True
    >>> _stream_terminal(b'event: incumbent\ndata: {"length":9}\n\n')
    False
    >>> _stream_terminal(b'event: optimal\ndata: {"len')  # torn frame
    False
    """
    if not tail.endswith(b"\n\n"):
        return False
    start = tail.rfind(b"event: ")
    if start < 0:
        return False
    name = tail[start + len(b"event: "):].split(b"\n", 1)[0].strip()
    return name in _TERMINAL_EVENTS


class DispatchRouter(HttpServerCore):
    """Consistent-hash router over ``repro serve`` replicas."""

    def __init__(
        self,
        replicas: List[str],
        host: str = DEFAULT_HOST,
        port: int = 0,
        health_interval_s: float = DEFAULT_HEALTH_INTERVAL_S,
        probe_timeout_s: float = DEFAULT_PROBE_TIMEOUT_S,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
        retry: Optional[RetryPolicy] = None,
        deadline_ms: Optional[float] = None,
        breaker_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        breaker_reset_s: float = DEFAULT_RESET_TIMEOUT_S,
    ):
        super().__init__(
            host=host, port=port, drain_timeout_s=drain_timeout_s
        )
        for name, value in (
            ("health_interval_s", health_interval_s),
            ("probe_timeout_s", probe_timeout_s),
            ("request_timeout_s", request_timeout_s),
        ):
            check_duration(name, value)
        if deadline_ms is not None:
            check_duration("deadline_ms", deadline_ms)
        if not replicas:
            raise ReproError(
                "a dispatcher needs at least one replica address"
            )
        self.replicas: Dict[str, Tuple[str, int]] = {}
        for text in replicas:
            replica_host, replica_port = parse_address(text)
            name = f"{replica_host}:{replica_port}"
            if name in self.replicas:
                raise ReproError(f"duplicate replica address {name!r}")
            self.replicas[name] = (replica_host, replica_port)
        self.ring = HashRing(self.replicas)
        self.health_interval_s = health_interval_s
        self.probe_timeout_s = probe_timeout_s
        self.request_timeout_s = request_timeout_s
        # Failover-walk policy: max_attempts=0 means "walk the whole
        # ring preference", preserving the pre-resilience semantics
        # while still pacing attempts with jittered backoff.
        self.retry = retry or RetryPolicy(
            max_attempts=DEFAULT_RETRY_ATTEMPTS,
            base_s=DEFAULT_RETRY_BASE_S,
            max_backoff_s=DEFAULT_RETRY_MAX_BACKOFF_S,
        )
        self.deadline_ms = deadline_ms
        self.metrics = DispatchMetrics()
        self._keys = CacheKeyResolver()
        self._down: Set[str] = set()
        self._breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                failure_threshold=breaker_threshold,
                reset_timeout_s=breaker_reset_s,
            )
            for name in self.replicas
        }
        self._inflight: Dict[protocol.ScheduleRequest, asyncio.Future] = {}
        self._health_tasks: List[asyncio.Task] = []
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle.

    async def start(self) -> "DispatchRouter":
        await self.listen()
        loop = asyncio.get_running_loop()
        self._health_tasks = [
            loop.create_task(self._health_loop(name))
            for name in self.replicas
        ]
        return self

    async def stop(self) -> bool:
        """Graceful drain: stop listening, finish in-flight proxying.

        Returns True when every in-flight exchange resolved inside
        ``drain_timeout_s``.
        """
        self._draining = True
        await self.close_listener()
        tasks, self._health_tasks = self._health_tasks, []
        for task in tasks:
            task.cancel()
        if tasks:
            # `asyncio.wait` absorbs the health tasks' own cancels but
            # raises when `stop` itself is cancelled (an outer
            # `wait_for`, a shutdown timeout), where awaiting each task
            # under `except CancelledError` would swallow that cancel.
            await asyncio.wait(tasks)
        drained = True
        deadline = (
            asyncio.get_running_loop().time() + self.drain_timeout_s
        )
        while self._inflight:
            waiters = [
                asyncio.shield(f) for f in list(self._inflight.values())
            ]
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                drained = False
                break
            done, pending = await asyncio.wait(
                waiters, timeout=remaining
            )
            for waiter in pending:
                waiter.cancel()
            if pending:
                drained = False
                break
        return drained

    # ------------------------------------------------------------------
    # Replica membership.

    @property
    def up_replicas(self) -> List[str]:
        return [name for name in self.replicas if name not in self._down]

    def _eject(self, name: str) -> None:
        if name not in self._down:
            self._down.add(name)
            self.metrics.ejected += 1

    def _readmit(self, name: str) -> None:
        if name in self._down:
            self._down.discard(name)
            self.metrics.readmitted += 1

    def _record_breaker(self, name: str, record) -> None:
        """Run one breaker transition, folding deltas into metrics."""
        breaker = self._breakers[name]
        opened, closed = breaker.opened_total, breaker.closed_total
        record()
        self.metrics.breaker_opened += breaker.opened_total - opened
        self.metrics.breaker_closed += breaker.closed_total - closed

    def _candidates(self, key: str) -> List[str]:
        """Ring preference filtered by membership and breaker state.

        Falls back to the unfiltered preference walk when the filter
        empties it: probes may simply not have noticed a recovery yet,
        and trying everything beats refusing outright.
        """
        candidates = [
            name
            for name in self.ring.preference(key)
            if name not in self._down and self._breakers[name].allow()
        ]
        return candidates or self.ring.preference(key)

    async def _probe(self, name: str) -> bool:
        """One health probe; True when the replica answered 200."""
        replica_host, replica_port = self.replicas[name]
        try:
            status, _, _ = await proxy.exchange(
                replica_host,
                replica_port,
                "GET",
                "/healthz",
                timeout=self.probe_timeout_s,
            )
        except (OSError, asyncio.TimeoutError, proxy.ProxyProtocolError):
            return False
        return status == 200

    def _apply_probe(self, name: str, ok: bool) -> None:
        """Fold one probe outcome into membership and breaker state.

        Probe-driven readmission is unified: a healthy probe both
        readmits the replica into the ring and feeds the breaker a
        success, so an open breaker closes through the same evidence
        that ends an ejection.
        """
        breaker = self._breakers[name]
        if ok:
            self._record_breaker(name, breaker.record_success)
            self._readmit(name)
        else:
            self._record_breaker(name, breaker.record_failure)
            self._eject(name)

    async def check_replicas(self) -> Dict[str, bool]:
        """Probe every replica once and update ring membership."""
        names = list(self.replicas)
        healthy = await asyncio.gather(
            *(self._probe(name) for name in names)
        )
        states: Dict[str, bool] = {}
        for name, ok in zip(names, healthy):
            states[name] = ok
            self._apply_probe(name, ok)
        return states

    def _probe_stagger_s(self, name: str) -> float:
        """Deterministic per-replica phase offset within one interval.

        Spreads probes across the health interval so N replicas are
        not all hit at the same instant every period (a synchronized
        probe burst looks like load to a struggling replica).  Hashing
        the replica name keeps the offset stable across restarts.
        """
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:4], "big") / 2**32
        return fraction * self.health_interval_s

    async def _health_loop(self, name: str) -> None:
        await asyncio.sleep(self._probe_stagger_s(name))
        # Checked, not just cancelled: on Python 3.11 the probe's
        # `asyncio.wait_for` can swallow a cancel that races with the
        # exchange finishing (bpo-42130), and `stop` awaits this task.
        while not self._draining:
            try:
                ok = await self._probe(name)
                self._apply_probe(name, ok)
            except asyncio.CancelledError:
                raise
            except Exception:
                # A probe must never kill its loop; probe failures are
                # already folded into membership.
                pass
            await asyncio.sleep(self.health_interval_s)

    # ------------------------------------------------------------------
    # Routing.

    def on_request_error(self) -> None:
        self.metrics.errors += 1

    async def dispatch(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        query: str = "",
    ) -> Answer:
        self.metrics.requests += 1
        if path == "/schedule/stream":
            if method != "GET":
                self.metrics.errors += 1
                return 405, protocol.error_payload(
                    "use GET /schedule/stream"
                ), {}
            return await self._handle_stream(query, headers)
        if path == "/schedule":
            if method != "POST":
                self.metrics.errors += 1
                return 405, protocol.error_payload(
                    "use POST /schedule"
                ), {}
            return await self._handle_schedule(body, headers)
        if path == "/healthz":
            if method != "GET":
                self.metrics.errors += 1
                return 405, protocol.error_payload("use GET /healthz"), {}
            up = self.up_replicas
            status = 503 if self._draining or not up else 200
            return status, {
                "status": "draining" if self._draining else (
                    "ok" if up else "no-replicas"
                ),
                "role": "dispatcher",
                "replicas_up": len(up),
                "replicas_total": len(self.replicas),
                "in_flight": self.metrics.in_flight,
            }, {}
        if path == "/metrics":
            if method != "GET":
                self.metrics.errors += 1
                return 405, protocol.error_payload("use GET /metrics"), {}
            return 200, await self.cluster_metrics(), {}
        self.metrics.errors += 1
        return 404, not_found_payload(path), {}

    def _gate(
        self, request_headers: Dict[str, str]
    ) -> Tuple[Deadline, Optional[Answer]]:
        """The edge gate both routed endpoints pass before any hop.

        Returns the request's deadline budget (header wins over the
        flag) and, when the request must not be routed, its answer:
        503 while draining, 504 once the budget is already spent.
        """
        deadline = Deadline.from_headers(
            request_headers, default_ms=self.deadline_ms
        )
        if self._draining:
            self.metrics.errors += 1
            return deadline, (
                503,
                protocol.error_payload(
                    "dispatcher is draining; retry shortly"
                ),
                {"Retry-After": "1"},
            )
        if deadline.expired():
            self.metrics.errors += 1
            return deadline, self._deadline_expired()
        return deadline, None

    def _deadline_expired(self) -> Answer:
        self.metrics.deadline_exhausted += 1
        self.metrics.failed += 1
        return 504, protocol.encode_json(
            protocol.error_payload(
                "deadline budget exhausted before a replica answered"
            )
        ), {}

    async def _handle_schedule(
        self, body: bytes, request_headers: Dict[str, str]
    ) -> Answer:
        try:
            request = protocol.parse_request(body)
        except protocol.ProtocolError as exc:
            self.metrics.errors += 1
            return exc.status, protocol.error_payload(str(exc)), {}
        deadline, refusal = self._gate(request_headers)
        if refusal is not None:
            return refusal

        self.metrics.schedule_requests += 1

        # Coalesce at the router: a request identical to one already
        # being proxied (same job *and* same shaping flags, so the
        # response bytes match) attaches to that exchange's future and
        # never costs a network hop.  Shield per waiter: one client
        # disconnecting must not cancel its twins' exchange.
        future = self._inflight.get(request)
        if future is not None:
            self.metrics.coalesced += 1
            return await asyncio.shield(future)

        future = asyncio.get_running_loop().create_future()
        self._inflight[request] = future
        self.metrics.in_flight += 1
        started = time.monotonic()
        try:
            answer = await self._walk(
                self._keys.key(request.spec),
                "job",
                deadline,
                lambda host, port, headers, timeout: proxy.exchange(
                    host, port, "POST", "/schedule", body, headers, timeout
                ),
            )
            if not future.done():
                future.set_result(answer)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # The exception is delivered to every coalesced twin;
                # retrieve it here too so asyncio never logs it as
                # unretrieved when there are no twins.
                future.exception()
            raise
        finally:
            self._inflight.pop(request, None)
            self.metrics.in_flight -= 1
            self.metrics.observe_latency(time.monotonic() - started)
        return answer

    async def _handle_stream(
        self, query: str, request_headers: Dict[str, str]
    ) -> Answer:
        """Relay ``GET /schedule/stream`` to the replica owning its key.

        Routing mirrors ``/schedule``: the canonical ``bnb-anytime``
        cache key picks the ring position, so a stream request lands on
        the replica whose store already holds (and will keep) that
        graph's canonical entry.  Failover happens *before* the stream
        starts — once a replica answers 200 its SSE bytes are relayed
        verbatim; a mid-stream death surfaces to the client as a
        terminal structured ``error`` event (see ``_relay_stream``).
        """
        try:
            spec = protocol.parse_stream(query)
        except protocol.ProtocolError as exc:
            self.metrics.errors += 1
            return exc.status, protocol.error_payload(str(exc)), {}
        # The canonical improver key: the budget shapes the run, not
        # the entry, so it does not influence routing.
        key = self._keys.key(spec.canonical())
        deadline, refusal = self._gate(request_headers)
        if refusal is not None:
            return refusal

        target = f"/schedule/stream?{query}"

        async def attempt(host, port, headers, timeout):
            status, got, payload, chunks = await proxy.open_stream(
                host, port, target, headers, timeout
            )
            return status, got, payload if chunks is None else chunks

        return await self._walk(key, "stream", deadline, attempt)

    async def _walk(
        self, key: str, noun: str, deadline: Deadline, attempt: Callable
    ) -> Answer:
        """Try ``attempt`` along ``key``'s ring preference until a
        replica answers below 500.

        The one failover walk behind both routed endpoints: retry
        budget and backoff, deadline checks, ejection, breakers,
        failover counters and routing headers all live here.
        ``attempt(host, port, forwarded headers, timeout)`` returns
        ``(status, lowercase headers, body)``, where the body is bytes
        or, for a close-delimited stream, a live chunk iterator.
        ``noun`` names the request in the all-failed error.
        """
        failures: List[str] = []
        for attempt_no, name in enumerate(self._candidates(key), 1):
            if attempt_no > 1:
                if not self.retry.allows(attempt_no):
                    failures.append("retry budget exhausted")
                    break
                self.metrics.retried += 1
                await asyncio.sleep(
                    deadline.clamp(self.retry.backoff_s(attempt_no - 1))
                )
            if deadline.expired():
                return self._deadline_expired()
            replica_host, replica_port = self.replicas[name]
            try:
                status, headers, body = await attempt(
                    replica_host,
                    replica_port,
                    deadline.headers(),
                    deadline.clamp(self.request_timeout_s),
                )
            except (
                OSError,
                asyncio.TimeoutError,
                proxy.ProxyProtocolError,
            ) as exc:
                # Transport-level failure: the replica is gone or
                # wedged.  Eject it now instead of waiting a probe
                # period, and walk on.
                self._replica_failed(name, eject=True)
                failures.append(
                    f"{name}: {str(exc) or type(exc).__name__}"
                )
                if deadline.expired():
                    return self._deadline_expired()
                continue
            if status >= 500:
                # 5xx and drain-in-progress 503s fail over; the next
                # ring position computes the same deterministic answer.
                # Draining replicas leave the ring; probes readmit them.
                if not isinstance(body, bytes):
                    await body.aclose()
                self._replica_failed(name, eject=status == 503)
                failures.append(f"{name}: HTTP {status}")
                continue
            self.metrics.record_routed(name)
            self._record_breaker(
                name, self._breakers[name].record_success
            )
            if attempt_no > 1:
                self.metrics.failed_over += 1
            extra = {
                "X-Repro-Replica": name,
                "X-Repro-Attempts": str(attempt_no),
            }
            # Retry-After keeps a relayed 429's backoff contract
            # intact: through the router or direct, same behaviour.
            for passthrough in (
                "x-repro-source",
                "x-repro-key",
                "retry-after",
            ):
                if passthrough in headers:
                    extra[passthrough.title()] = headers[passthrough]
            if not isinstance(body, bytes):
                body = StreamBody(self._relay_stream(body))
            return status, body, extra

        self.metrics.failed += 1
        return 502, protocol.encode_json(
            protocol.error_payload(
                f"all replicas failed for this {noun}: "
                + "; ".join(failures)
            )
        ), {"Retry-After": "1"}

    def _replica_failed(self, name: str, eject: bool) -> None:
        self.metrics.record_failure(name)
        self._record_breaker(name, self._breakers[name].record_failure)
        if eject:
            self._eject(name)

    async def _relay_stream(self, chunks) -> AsyncIterator:
        """Relay replica SSE bytes verbatim, appending a terminal
        ``error`` event if the replica dies mid-stream.

        A healthy stream passes through untouched (byte-determinism:
        the client sees exactly what the replica sent).  When the
        upstream connection ends without a terminal frame — replica
        crash, reset, timeout — the client gets one structured SSE
        ``error`` event instead of a silent hangup, and the router
        counts ``stream_broken``.
        """
        tail = b""
        try:
            async for chunk in chunks:
                if isinstance(chunk, str):
                    chunk = chunk.encode("utf-8")
                tail = (tail + chunk)[-_STREAM_TAIL_BYTES:]
                yield chunk
        except (OSError, asyncio.TimeoutError):
            tail = b"broken"  # force the non-terminal branch below
        finally:
            await chunks.aclose()
        if not _stream_terminal(tail):
            self.metrics.stream_broken += 1
            yield sse_frame(
                {
                    "type": "error",
                    "error": (
                        "upstream replica disconnected mid-stream"
                    ),
                }
            ).encode("utf-8")

    # ------------------------------------------------------------------
    # Aggregated metrics.

    async def _scrape(self, name: str) -> Dict:
        replica_host, replica_port = self.replicas[name]
        try:
            status, _, payload = await proxy.exchange(
                replica_host,
                replica_port,
                "GET",
                "/metrics",
                timeout=self.probe_timeout_s,
            )
        except (
            OSError,
            asyncio.TimeoutError,
            proxy.ProxyProtocolError,
        ) as exc:
            return {
                "up": False,
                "error": str(exc) or type(exc).__name__,
            }
        if status != 200:
            return {"up": False, "error": f"HTTP {status}"}
        try:
            metrics = protocol.decode_response(payload)
        except ValueError as exc:
            return {"up": False, "error": f"bad metrics body: {exc}"}
        return {"up": True, "metrics": metrics}

    async def cluster_metrics(self) -> Dict:
        """The aggregated ``/metrics`` document.

        Three sections: ``router`` (this process's counters),
        ``replicas`` (each replica's live ``/metrics``, or its scrape
        error), and ``cluster`` (every replica counter summed across
        the replicas that answered — the cluster-wide one-compute-per-
        unique-key invariant is checked against ``cluster.computed``).
        """
        names = list(self.replicas)
        scraped = await asyncio.gather(
            *(self._scrape(name) for name in names)
        )
        replicas = dict(zip(names, scraped))
        up = [entry["metrics"] for entry in replicas.values() if entry["up"]]
        totals = {
            "replicas_up": len(up),
            "replicas_total": len(replicas),
            **cluster_sums(up),
        }
        return {
            "router": {
                **self.metrics.snapshot(),
                "ring": {
                    "members": list(self.ring.members),
                    "vnodes": self.ring.vnodes,
                    "down": sorted(self._down),
                    "breakers": {
                        name: breaker.snapshot()
                        for name, breaker in self._breakers.items()
                    },
                },
            },
            "replicas": replicas,
            "cluster": totals,
        }


def run_router(**kwargs) -> int:
    """Blocking entry point used by ``repro dispatch``.

    Exit codes mirror ``repro serve``: 0 = drained clean, 1 = the
    graceful drain timed out with proxied work still in flight.
    """
    router = DispatchRouter(**kwargs)
    return router.run_until_signal(
        "repro dispatch",
        f" fronting {len(router.replicas)} replica(s): "
        + ", ".join(router.replicas),
        "in-flight work",
    )
