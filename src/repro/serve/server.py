"""The asyncio JSON-over-HTTP scheduling service.

A deliberately small, dependency-free HTTP/1.1 server — the transport
lives in :class:`~repro.serve.http.HttpServerCore`, shared with the
multi-replica dispatcher — exposing three endpoints:

``POST /schedule``
    Validate the body (see :mod:`repro.serve.protocol`), answer a
    memory-tier hit at once, else coalesce it onto any identical
    in-flight computation or micro-batch it into the shared
    :class:`~repro.engine.batch.BatchEngine`, and answer with the
    canonical result JSON.  Volatile provenance travels in
    headers: ``X-Repro-Source: computed|coalesced|cache``.  Constraint
    scenarios (``scenario`` / ``io_schedule`` request fields, see
    :mod:`repro.engine.scenario`) ride the same path: they are part of
    the spec, hence of the cache key, and fresh scenario computes bump
    the per-mode ``scenario_*_jobs`` counters on ``/metrics``.
``GET /healthz``
    Liveness plus a tiny status summary.
``GET /metrics``
    The :class:`~repro.serve.metrics.ServiceMetrics` snapshot (peer
    store counters merged in when a cluster tier is configured).
``GET /cache/<key>`` / ``POST /cache/<key>``
    The cluster tier's wire surface (see :mod:`repro.store`): GET
    serves this replica's cache entry for an exact engine cache key,
    POST installs a peer-published entry.  Both are stats-free on the
    schedule path — a peer probing never distorts hit/miss accounting.

Replicas started with ``--peer`` wrap their cache in a
:class:`~repro.store.ClusterStore`: local misses peer-fetch before
computing, fresh computes publish to ring successors, and graceful
shutdown flushes the async publisher between the request drain and the
engine teardown — so a SIGTERM'd replica's results survive on its
peers.

Overload: at most ``max_queue`` schedule requests may be in flight;
beyond that the server answers 429 with a ``Retry-After`` hint rather
than queueing without bound.  Shutdown is graceful: the listener
closes first, in-flight work drains (bounded by ``drain_timeout_s``),
then the engine's worker pool goes down.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, Iterable, Optional, Tuple

from repro import faultlab
from repro.engine.batch import DEFAULT_WORKERS, BatchEngine
from repro.engine.cache import _is_key
from repro.engine.job import JobResult
from repro.engine.keys import FINGERPRINT_MEMO_LIMIT
from repro.errors import ConfigError, ReproError
from repro.improve import Improver
from repro.serve import protocol
from repro.store import (
    DEFAULT_PEER_TIMEOUT_S,
    ClusterStore,
    PeerError,
    parse_entry,
)
from repro.store.cluster import (
    DEFAULT_PUBLISH,
    DEFAULT_PUBLISH_FANOUT,
    check_peer_options,
)
from repro.serve.coalescer import (
    DEFAULT_BATCH_WINDOW_MS,
    DEFAULT_MAX_BATCH,
    RequestCoalescer,
)
from repro.serve.http import (
    DEFAULT_DRAIN_TIMEOUT_S,
    DEFAULT_HOST,
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    Body,
    HttpServerCore,
    StreamBody,
    not_found_payload,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.stream import DEFAULT_STREAM_NODES, ImproveTask, sse_frame

__all__ = [
    "DEFAULT_DRAIN_TIMEOUT_S",
    "DEFAULT_MAX_QUEUE",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "ScheduleServer",
    "metrics_snapshot",
    "run_server",
]

#: Admission bound: schedule requests in flight before 429s start.
DEFAULT_MAX_QUEUE = 256


class ScheduleServer(HttpServerCore):
    """One serving process: listener + coalescer + batch engine."""

    def __init__(
        self,
        engine: Optional[BatchEngine] = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
        workers: int = DEFAULT_WORKERS,
        cache_dir: Optional[str] = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_batch: int = DEFAULT_MAX_BATCH,
        batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
        max_cache_entries: Optional[int] = None,
        peers: Iterable[str] = (),
        peer_timeout_s: float = DEFAULT_PEER_TIMEOUT_S,
        publish: str = DEFAULT_PUBLISH,
        publish_fanout: int = DEFAULT_PUBLISH_FANOUT,
    ):
        super().__init__(
            host=host, port=port, drain_timeout_s=drain_timeout_s
        )
        if max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1, got {max_queue}")
        peers = tuple(peers)
        if engine is not None and peers:
            raise ConfigError(
                "pass `peers` only when the server builds its own "
                "engine; wrap your cache in a ClusterStore instead"
            )
        if not peers:
            check_peer_options(peer_timeout_s, publish, publish_fanout)
        if engine is None:
            # Rich results by design: artifacts always captured, gaps
            # always computed (bounded to small graphs by the engine's
            # ops limit).  Any request flag combination then shares one
            # computation and one cache entry; responses are shaped per
            # request in the protocol layer.
            if peers:
                engine = BatchEngine(
                    workers=workers,
                    cache=ClusterStore(
                        peers,
                        cache_dir=cache_dir,
                        max_entries=max_cache_entries,
                        peer_timeout_s=peer_timeout_s,
                        publish=publish,
                        publish_fanout=publish_fanout,
                    ),
                    compute_gaps=True,
                    capture_schedules=True,
                )
            else:
                engine = BatchEngine(
                    workers=workers,
                    cache_dir=cache_dir,
                    compute_gaps=True,
                    capture_schedules=True,
                    max_cache_entries=max_cache_entries,
                )
        self.engine = engine
        self.max_queue = max_queue
        self.metrics = ServiceMetrics()
        self.coalescer = RequestCoalescer(
            engine,
            metrics=self.metrics,
            max_batch=max_batch,
            batch_window_ms=batch_window_ms,
        )
        self._draining = False
        # Encoded hit responses by (key, artifacts, gaps), each beside
        # the stored artifact object it was encoded from (see
        # `_response_body`); cleared on overflow like the engine's
        # fingerprint memo.
        self._responses: Dict[
            Tuple[str, bool, bool], Tuple[Dict, bytes]
        ] = {}
        # Improver runs keyed by canonical cache key; a stream request
        # for a key whose improver is live attaches instead of
        # starting a second search over the same graph.
        self._improves: Dict[str, ImproveTask] = {}

    # ------------------------------------------------------------------
    # Lifecycle.

    async def start(self) -> "ScheduleServer":
        self.engine.start()
        try:
            await self.listen()
        except Exception:
            self.engine.shutdown()
            raise
        return self

    async def stop(self) -> bool:
        """Graceful drain: stop listening, finish in-flight, tear down.

        Returns True when the drain completed inside the timeout.
        """
        self._draining = True
        await self.close_listener()
        drained = await self.coalescer.drain(self.drain_timeout_s)
        self.coalescer.close()
        # Flush the cluster publisher *after* the drain (the drained
        # requests' computes enqueue publishes) and *before* the engine
        # goes down — this is what makes a SIGTERM'd replica's results
        # survive on its peers.  Runs off-loop: flush polls with sleeps.
        await asyncio.get_running_loop().run_in_executor(
            None, self.engine.cache.close
        )
        self.engine.shutdown()
        return drained

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
    ) -> Tuple[int, Body, Dict[str, str]]:
        self.metrics.requests += 1
        if path == "/schedule/stream":
            if method != "GET":
                self.metrics.errors += 1
                return 405, protocol.error_payload(
                    "use GET /schedule/stream"
                ), {}
            return await self._handle_stream(query)
        if path == "/schedule":
            if method != "POST":
                self.metrics.errors += 1
                return 405, protocol.error_payload(
                    "use POST /schedule"
                ), {}
            return await self._handle_schedule(body)
        if path == "/healthz":
            if method != "GET":
                self.metrics.errors += 1
                return 405, protocol.error_payload("use GET /healthz"), {}
            status = 503 if self._draining else 200
            return status, {
                "status": "draining" if self._draining else "ok",
                "in_flight": self.metrics.in_flight,
                "workers": self.engine.workers,
            }, {}
        if path == "/metrics":
            if method != "GET":
                self.metrics.errors += 1
                return 405, protocol.error_payload("use GET /metrics"), {}
            return 200, self.metrics_payload(), {}
        if path.startswith("/cache/"):
            return await self._handle_cache(method, path, body)
        self.metrics.errors += 1
        return 404, not_found_payload(path), {}

    def metrics_payload(self) -> Dict:
        """The exact ``/metrics`` document for this replica."""
        snapshot = self.metrics.snapshot()
        snapshot["engine_cache"] = self.engine.cache.stats()
        # Top-level merges (not nested) so the dispatcher's cluster-wide
        # aggregation sums them like any replica counter.
        if isinstance(self.engine.cache, ClusterStore):
            snapshot.update(self.engine.cache.peer_stats())
        snapshot.update(self.engine.crash_stats())
        return snapshot

    async def _handle_cache(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Body, Dict[str, str]]:
        """The cluster tier's wire surface, one key per request.

        Engine calls run in the default executor: they take the
        engine's submission lock, and a peer probe must not stall the
        event loop behind a long cache resolution.
        """
        key = path[len("/cache/"):]
        if not _is_key(key):
            self.metrics.errors += 1
            return 400, protocol.error_payload(
                "cache keys are 64-char sha256 hexdigests"
            ), {}
        loop = asyncio.get_running_loop()
        if method == "GET":
            entry = await loop.run_in_executor(
                None, self.engine.entry_payload, key
            )
            if entry is None:
                return 404, protocol.error_payload(
                    f"no cache entry for key {key[:12]}..."
                ), {"X-Repro-Key": key}
            self.metrics.peer_served += 1
            return 200, entry, {"X-Repro-Key": key}
        if method == "POST":
            try:
                data = json.loads(body.decode("utf-8"))
                result = parse_entry(data, key)
            except (ValueError, UnicodeDecodeError, PeerError) as exc:
                self.metrics.errors += 1
                return 400, protocol.error_payload(
                    f"bad cache entry: {exc}"
                ), {}
            stored = await loop.run_in_executor(
                None, self.engine.install_result, result
            )
            # parse_entry already refused error results, so a refusal
            # here is a stale anytime entry the held one out-ranks: a
            # healthy answer, so the sender's breaker stays closed.
            if stored:
                self.metrics.peer_received += 1
            return 200, {"stored": stored, "key": key}, {}
        self.metrics.errors += 1
        return 405, protocol.error_payload(
            "use GET or POST /cache/<key>"
        ), {}

    async def _handle_schedule(
        self, body: bytes
    ) -> Tuple[int, Body, Dict[str, str]]:
        try:
            request = protocol.parse_request(body)
        except protocol.ProtocolError as exc:
            self.metrics.errors += 1
            return exc.status, protocol.error_payload(str(exc)), {}
        if self._draining:
            self.metrics.errors += 1
            return 503, protocol.error_payload(
                "server is draining; retry against a live replica"
            ), {"Retry-After": "1"}
        if self.metrics.in_flight >= self.max_queue:
            self.metrics.rejected += 1
            return 429, protocol.error_payload(
                f"queue full ({self.max_queue} requests in flight); "
                "retry later"
            ), {"Retry-After": "1"}

        self.metrics.schedule_requests += 1
        self.metrics.in_flight += 1
        started = time.monotonic()
        try:
            if faultlab.enabled():
                # Chaos harness: a "slow replica" stalls here, after
                # admission — the router's deadline/failover machinery
                # sees a wedged upstream, not a refused connection.
                lag = faultlab.replica_lag_s()
                if lag > 0:
                    await asyncio.sleep(lag)
            result, coalesced = await self.coalescer.schedule(
                request.spec
            )
        except Exception as exc:  # engine failure -> 500, not a hang
            self.metrics.errors += 1
            return 500, protocol.error_payload(
                f"scheduling failed: {exc}"
            ), {}
        finally:
            self.metrics.in_flight -= 1
            self.metrics.observe_latency(time.monotonic() - started)
        return 200, self._response_body(result, request), {
            "X-Repro-Source": protocol.source_of(result, coalesced),
            "X-Repro-Key": result.key,
        }

    def _response_body(
        self, result: JobResult, request: protocol.ScheduleRequest
    ) -> Body:
        """The response for one served result; hits reuse their bytes.

        A memory-tier hit carries the store's own artifact object, and
        every write to a key (a recompute, a peer install, an anytime
        rewrite — all through the engine's ``_admit``) stores a fresh
        one.  So bytes memoized beside the very artifact a hit carries
        are still that entry's encoding, and the hit skips the payload
        build and the JSON encode; a rewritten entry misses the memo
        and is encoded afresh.
        """
        artifact = result.artifact
        if not result.cached or artifact is None:
            return protocol.response_payload(result, request)
        memo_key = (result.key, request.artifacts, request.gaps)
        memo = self._responses.get(memo_key)
        if memo is not None and memo[0] is artifact:
            return memo[1]
        body = protocol.encode_json(
            protocol.response_payload(result, request)
        )
        if len(self._responses) >= FINGERPRINT_MEMO_LIMIT:
            self._responses.clear()
        self._responses[memo_key] = (artifact, body)
        return body

    # ------------------------------------------------------------------
    # Live improvement streams.

    async def _handle_stream(
        self, query: str
    ) -> Tuple[int, Body, Dict[str, str]]:
        """``GET /schedule/stream?graph=HAL[&resources=..][&nodes=..]``.

        One improver run per canonical cache key: the first stream
        request for a key starts a background run; concurrent and
        late requests attach to it (history replay makes attachment
        order invisible).  The response is a close-delimited SSE
        stream ending in exactly one terminal event.
        """
        try:
            spec = protocol.parse_stream(query)
        except protocol.ProtocolError as exc:
            self.metrics.errors += 1
            return exc.status, protocol.error_payload(str(exc)), {}
        budget = spec.budget_dict()
        nodes, deadline_ms = budget.get("nodes"), budget.get("deadline_ms")
        if not budget:
            # An unbudgeted stream still terminates: the default node
            # budget bounds one request's CPU, and the checkpoint left
            # behind lets the next request continue the search.
            nodes = DEFAULT_STREAM_NODES
        if self._draining:
            self.metrics.errors += 1
            return 503, protocol.error_payload(
                "server is draining; retry against a live replica"
            ), {"Retry-After": "1"}

        loop = asyncio.get_running_loop()
        try:
            # Construction seeds from the cache (disk reads, graph
            # build) — executor, not the loop thread.
            improver = await loop.run_in_executor(
                None,
                lambda: Improver(self.engine, spec.graph, spec.resources),
            )
        except ReproError as exc:
            self.metrics.errors += 1
            return 400, protocol.error_payload(str(exc)), {}

        task = self._improves.get(improver.key)
        if task is None or task.done:
            task = ImproveTask(improver.key)
            self._improves[improver.key] = task
            self.metrics.improve_jobs += 1
            # Every subscriber's stream opens with the current
            # incumbent, so a client knows the baseline its
            # improvements are relative to.
            task.broadcast(improver.solver.status_event("incumbent"))
            asyncio.ensure_future(
                self._drive(task, improver, nodes, deadline_ms)
            )
        queue = task.subscribe()

        async def frames():
            self.metrics.sse_clients += 1
            try:
                while True:
                    event = await queue.get()
                    if event is None:
                        return
                    yield sse_frame(event)
            finally:
                self.metrics.sse_clients -= 1
                task.unsubscribe(queue)

        return 200, StreamBody(frames()), {"X-Repro-Key": improver.key}

    async def _drive(
        self,
        task: ImproveTask,
        improver: Improver,
        nodes: Optional[int],
        deadline_ms: Optional[int],
    ) -> None:
        """Run one improver to its budget, fanning events to ``task``."""
        loop = asyncio.get_running_loop()

        def forward(event: Dict) -> None:
            # Called from the executor thread; marshal onto the loop.
            # A loop torn down mid-run just drops the event.
            try:
                loop.call_soon_threadsafe(task.broadcast, dict(event))
            except RuntimeError:
                pass

        try:
            summary = await loop.run_in_executor(
                None,
                lambda: improver.run(
                    nodes=nodes,
                    deadline_ms=deadline_ms,
                    on_event=forward,
                ),
            )
        except Exception as exc:
            self.metrics.errors += 1
            task.broadcast({"type": "error", "error": str(exc)})
        else:
            self.metrics.improved_entries += improver.rewrites
            if summary["proved"]:
                self.metrics.proved_optimal += 1
        finally:
            task.finish()


def run_server(**kwargs) -> int:
    """Blocking entry point used by ``repro serve``; the exit code of
    :meth:`HttpServerCore.run_until_signal`."""
    server = ScheduleServer(**kwargs)
    return server.run_until_signal(
        "repro serve",
        f" (workers={server.engine.workers}, "
        f"max_queue={server.max_queue})",
        "in-flight jobs",
    )


def metrics_snapshot(server: ScheduleServer) -> Dict:
    """The exact ``/metrics`` document (handy for in-process tests)."""
    return json.loads(json.dumps(server.metrics_payload()))
