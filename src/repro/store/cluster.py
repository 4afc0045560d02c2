"""The cluster-shared tiered result store.

:class:`ClusterStore` extends the two local tiers of
:class:`~repro.engine.cache.ResultCache` (memory, sharded disk) with a
third: the *cluster peer tier*.  Peers are other ``repro serve``
replicas; on a local miss the store fetches the entry by its exact
engine cache key over ``GET /cache/<key>``, and on a fresh local
compute it publishes the entry to its ring successors over
``POST /cache/<key>`` — so the cluster as a whole computes each unique
key once, and a replica's death loses no cache warmth its peers
already hold.

Tier walk order on fetch follows :meth:`HashRing.preference`: the
key's *home* replica (the one the dispatcher routes the key to) is
asked first, then the failover successors, so in steady state the
first probe is also the most likely hit.  Publishes go to the first
``publish_fanout`` ring successors — exactly the replicas the
dispatcher would fail the key over to — so after a replica dies, the
survivor that inherits its keys already holds its results.

Failure policy, end to end: a peer that is down, slow, or talking
garbage is *a miss plus a counter* (``peer_fetch_errors``), never an
exception in a request path; a publish that cannot be delivered is a
counter (``publish_errors``), never a failure of the originating
request; a publish shed because the async queue is full is a
``publish_dropped`` (logged once per store).  A per-peer
:class:`~repro.resilience.CircuitBreaker` sits in front of both
directions: a peer that keeps failing stops receiving traffic until a
probe readmits it.  Each peer gets one attempt per fetch walk; the ring
walk itself is the retry.

Concurrency: the engine calls :meth:`get`/:meth:`put` under its
submission lock, and calls :meth:`fetch_missing` *outside* it (network
waits must not stall concurrent batches).  The async publisher runs on
one background thread that touches only the network and the counter
lock — never the cache structures.

>>> store = ClusterStore([])          # no peers: a plain local store
>>> store.fetch_missing(["0" * 64])
{}
>>> store.peer_stats()["peer_hits"]
0
"""

from __future__ import annotations

import json
import logging
import queue
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro import metrics
from repro.engine.cache import ResultCache, decode_entry, encode_entry
from repro.engine.job import JobResult
from repro.errors import ConfigError, ReproError, check_duration
from repro.resilience import CircuitBreaker
from repro.resilience.breaker import (
    DEFAULT_FAILURE_THRESHOLD,
    DEFAULT_RESET_TIMEOUT_S,
)
from repro.store import peers as peers_mod
from repro.store.peers import DEFAULT_PEER_TIMEOUT_S, PeerError

logger = logging.getLogger(__name__)

#: Publish deliveries queued but not yet attempted before the async
#: publisher starts shedding (a shed delivery counts a publish_error).
PUBLISH_QUEUE_LIMIT = 1024

#: Modes for :class:`ClusterStore`'s ``publish`` parameter.
PUBLISH_MODES = ("off", "async", "sync")

#: How fresh computes reach peers unless told otherwise.
DEFAULT_PUBLISH = "async"

#: Ring successors that receive each fresh entry (0 = every peer).
DEFAULT_PUBLISH_FANOUT = 1

_SENTINEL = object()


def check_peer_options(
    peer_timeout_s: float, publish: str, publish_fanout: int
) -> None:
    """Raise :class:`ConfigError` unless the peer-tier options are valid.

    :class:`ClusterStore` checks them on construction; a serving
    process that builds no store (it has no peers) checks them here
    too, so a bad value fails the same way with or without peers.
    """
    if publish not in PUBLISH_MODES:
        raise ConfigError(
            f"publish must be one of {'/'.join(PUBLISH_MODES)}, "
            f"got {publish!r}"
        )
    if publish_fanout < 0:
        raise ConfigError(
            f"publish_fanout must be >= 0 (0 = all peers), got "
            f"{publish_fanout}"
        )
    check_duration("peer_timeout_s", peer_timeout_s)


#: The canonical entry document for a result: the store's one encoder
#: (see :func:`repro.engine.cache.encode_entry`), so a published entry
#: round-trips byte-for-byte with a locally stored one.
entry_payload_of = encode_entry


def parse_entry(data: object, key: str) -> JobResult:
    """Validate one peer-supplied entry document into a JobResult.

    On top of the store's shared decode
    (:func:`repro.engine.cache.decode_entry`), which refuses
    non-objects, foreign formats and records missing required fields,
    this refuses — with :class:`PeerError` — what must never enter a
    local tier from a peer: payloads whose embedded key disagrees with
    the requested one, and structured *error* results (never cached, so
    never accepted).
    """
    try:
        result = decode_entry(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise PeerError(f"peer entry is malformed: {exc}")
    if result is None:
        raise PeerError(f"peer entry has foreign format {data['format']!r}")
    if result.key != key:
        raise PeerError(
            f"peer entry key {result.key[:12]}... does not match the "
            f"requested key {key[:12]}..."
        )
    if result.error is not None:
        raise PeerError(
            "peer entry is a structured failure; error results are "
            "never cached"
        )
    return result


class ClusterStore(ResultCache):
    """Memory -> sharded disk -> cluster peer tier, one store.

    Parameters
    ----------
    peers:
        ``HOST:PORT`` addresses of the *other* replicas (never this
        process itself).  Empty means the store degenerates to a plain
        local :class:`ResultCache`.
    cache_dir / max_entries:
        The local tiers, exactly as in :class:`ResultCache`.
    peer_timeout_s:
        Per-exchange bound for fetches and publish deliveries.
    publish:
        ``"async"`` (default) delivers fresh entries from a background
        thread; ``"sync"`` delivers inline in :meth:`put` (write-
        through — slower puts, no loss window); ``"off"`` disables
        publishing while leaving peer *fetch* active.
    publish_fanout:
        How many ring successors receive each fresh entry (``0`` means
        every peer).  The default of 1 covers single-replica failure:
        the publish target is exactly the dispatcher's first failover
        choice for the key.
    fetch / push:
        Transport injection points for tests; defaults are
        :func:`repro.store.peers.fetch_entry` and
        :func:`repro.store.peers.publish_entry`.
    """

    def __init__(
        self,
        peers: Iterable[str] = (),
        cache_dir: Union[str, Path, None] = None,
        max_entries: Optional[int] = None,
        peer_timeout_s: float = DEFAULT_PEER_TIMEOUT_S,
        publish: str = DEFAULT_PUBLISH,
        publish_fanout: int = DEFAULT_PUBLISH_FANOUT,
        fetch: Optional[Callable] = None,
        push: Optional[Callable] = None,
        breaker_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        breaker_reset_s: float = DEFAULT_RESET_TIMEOUT_S,
    ):
        # Imported here, not at module level: repro.dispatch's package
        # init pulls in the router, which imports the serve layer,
        # which imports this module — a cycle at import time, but not
        # at construction time.
        from repro.dispatch.ring import HashRing

        check_peer_options(peer_timeout_s, publish, publish_fanout)
        super().__init__(cache_dir, max_entries=max_entries)
        self.peer_addresses: Dict[str, tuple] = {}
        for text in peers:
            host, port = peers_mod.parse_address(text)
            name = f"{host}:{port}"
            if name in self.peer_addresses:
                raise ReproError(f"duplicate peer address {name!r}")
            self.peer_addresses[name] = (host, port)
        # The router's default vnode count too, so this peers-only
        # ring walks each key in the router's failover order.
        self.ring = HashRing(self.peer_addresses)
        self.peer_timeout_s = peer_timeout_s
        self.publish_mode = publish if self.peer_addresses else "off"
        self.publish_fanout = publish_fanout
        self._fetch = fetch if fetch is not None else peers_mod.fetch_entry
        self._push = push if push is not None else peers_mod.publish_entry
        # Peer-tier counters; the lock covers them against the async
        # publisher thread (everything else runs under the engine's
        # submission lock or on the caller's thread).
        self._peer_lock = threading.Lock()
        metrics.zero(self, metrics.STORE)
        self._drop_logged = False
        self._pending = 0
        # Per-peer breakers, shared by fetch walks and publish
        # deliveries: a peer that keeps failing stops receiving
        # traffic for `breaker_reset_s`, then readmits via one probe.
        self._breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                failure_threshold=breaker_threshold,
                reset_timeout_s=breaker_reset_s,
            )
            for name in self.peer_addresses
        }
        self._queue: "queue.Queue" = queue.Queue(
            maxsize=PUBLISH_QUEUE_LIMIT
        )
        self._publisher: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------
    # The cluster tier: fetch.

    def fetch_missing(self, keys: Iterable[str]) -> Dict[str, JobResult]:
        """Peer-fetch entries for ``keys``; pure network, no mutation.

        This is the hook :meth:`BatchEngine.submit` calls *outside* its
        submission lock, so slow peers never stall concurrent batches;
        the engine installs whatever comes back under the lock.  Each
        key walks :meth:`HashRing.preference` — home replica first,
        then the failover successors — and every per-peer failure
        (refused, timed out, corrupt payload) is counted in
        ``peer_fetch_errors`` and skipped; a walk that finds nothing is
        one ``peer_miss``.  Never raises.
        """
        found: Dict[str, JobResult] = {}
        if not self.peer_addresses:
            return found
        for key in keys:
            result = self._fetch_one(key)
            if result is not None:
                found[key] = result
        return found

    def _breaker_allows(self, name: str) -> bool:
        with self._peer_lock:
            return self._breakers[name].allow()

    def _fetch_one(self, key: str) -> Optional[JobResult]:
        for name in self.ring.preference(key):
            if not self._breaker_allows(name):
                continue
            host, port = self.peer_addresses[name]
            breaker = self._breakers[name]
            try:
                data = self._fetch(
                    host, port, key, timeout=self.peer_timeout_s
                )
                # A clean 404 is a healthy answer: this peer just lacks
                # the entry.  PeerError and stub misbehavior alike must
                # degrade to a miss — the fallback is always local
                # compute.
                result = None if data is None else parse_entry(data, key)
            except Exception:
                with self._peer_lock:
                    self.peer_fetch_errors += 1
                    breaker.record_failure()
                continue
            with self._peer_lock:
                breaker.record_success()
                if result is not None:
                    self.peer_hits += 1
            if result is not None:
                return result
        with self._peer_lock:
            self.peer_misses += 1
        return None

    # ------------------------------------------------------------------
    # The cluster tier: publish.

    def put(self, result: JobResult) -> None:
        """Store a fresh local compute, then publish it to the ring.

        The local write keeps :class:`ResultCache` semantics exactly
        (including raising on an unwritable store); the publish step
        can only ever add counters, never exceptions.
        """
        super().put(result)
        if (
            self.publish_mode == "off"
            or not self.peer_addresses
            or result.error is not None
        ):
            return
        payload = json.dumps(encode_entry(result), sort_keys=True).encode()
        targets = self._publish_targets(result.key)
        if self.publish_mode == "sync":
            for name in targets:
                self._deliver(name, result.key, payload)
            return
        for name in targets:
            self._enqueue(name, result.key, payload)

    def _publish_targets(self, key: str) -> List[str]:
        limit = self.publish_fanout if self.publish_fanout > 0 else None
        return self.ring.preference(key, limit=limit)

    def _deliver(self, name: str, key: str, payload: bytes) -> None:
        host, port = self.peer_addresses[name]
        try:
            self._push(
                host, port, key, payload, timeout=self.peer_timeout_s
            )
        except Exception:
            # A dead or refusing peer must never fail the originating
            # request (or the publisher thread); the counter is the
            # only trace.  The outcome still feeds the peer's breaker,
            # so fetch walks learn from failed deliveries too.
            with self._peer_lock:
                self.publish_errors += 1
                self._breakers[name].record_failure()
            return
        with self._peer_lock:
            self.published += 1
            self._breakers[name].record_success()

    def _enqueue(self, name: str, key: str, payload: bytes) -> None:
        self._ensure_publisher()
        with self._peer_lock:
            self._pending += 1
        try:
            self._queue.put_nowait((name, key, payload))
        except queue.Full:
            # Shedding beats blocking a compute path on a wedged peer.
            # Dropped entries are counted (they were never attempted,
            # so they are not publish_errors) and logged exactly once
            # per store — a full queue means every subsequent put
            # would log too.
            with self._peer_lock:
                self._pending -= 1
                self.publish_dropped += 1
                log_now = not self._drop_logged
                self._drop_logged = True
            if log_now:
                logger.warning(
                    "publish queue full (%d pending); shedding entry "
                    "%s... for peer %s (counted in publish_dropped; "
                    "logged once per store)",
                    PUBLISH_QUEUE_LIMIT,
                    key[:12],
                    name,
                )

    def _ensure_publisher(self) -> None:
        if self._publisher is not None and self._publisher.is_alive():
            return
        self._publisher = threading.Thread(
            target=self._publish_loop,
            name="repro-store-publisher",
            daemon=True,
        )
        self._publisher.start()

    def _publish_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                return
            name, key, payload = item
            try:
                self._deliver(name, key, payload)
            finally:
                with self._peer_lock:
                    self._pending -= 1

    def flush(self, timeout: Optional[float] = 10.0) -> bool:
        """Wait until queued async publishes were attempted.

        Returns True when the queue drained inside ``timeout`` (None =
        wait forever).  "Attempted" includes failed deliveries — those
        are accounted in ``publish_errors``, not retried.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            with self._peer_lock:
                if self._pending <= 0:
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    def close(self, timeout: Optional[float] = 10.0) -> bool:
        """Flush pending publishes and retire the publisher thread."""
        drained = self.flush(timeout)
        self._closed = True
        publisher = self._publisher
        if publisher is not None and publisher.is_alive():
            self._queue.put(_SENTINEL)
            publisher.join(timeout=5.0)
        self._publisher = None
        return drained

    # ------------------------------------------------------------------
    # Introspection.  The properties are the metrics repro.metrics.STORE
    # derives from other state; read them through peer_stats(), which
    # holds the counter lock.

    @property
    def peers(self) -> int:
        return len(self.peer_addresses)

    @property
    def publish_pending(self) -> int:
        return max(0, self._pending)

    @property
    def peer_breaker_opened(self) -> int:
        return sum(b.opened_total for b in self._breakers.values())

    @property
    def peer_breaker_closed(self) -> int:
        return sum(b.closed_total for b in self._breakers.values())

    @property
    def peer_breakers_open(self) -> int:
        return sum(b.state != "closed" for b in self._breakers.values())

    def peer_stats(self) -> Dict[str, int]:
        """Cluster-tier metrics (complements :meth:`stats`)."""
        with self._peer_lock:
            return metrics.read(self, metrics.STORE)
