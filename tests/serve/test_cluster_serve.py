"""Live cluster-tier tests: real servers peer-fetching over HTTP.

Each test boots in-process :class:`ScheduleServer` instances on
background event loops and connects them with ``peers=[...]`` config —
the same wiring ``repro serve --peer`` produces — so the peer fetch,
publish, and failure-degradation paths are exercised over real
sockets.
"""

import asyncio
import json
import threading

import pytest

from repro.engine.batch import BatchEngine
from repro.engine.keys import cache_key_for
from repro.engine.job import JobSpec, anytime_meta
from repro.improve import Improver, improve_once
from repro.serve.client import ServeClient
from repro.serve.server import ScheduleServer
from repro.store import ClusterStore, entry_payload_of

SPEC = JobSpec.make("HAL", "2+/-,2*", "list")


@pytest.fixture()
def serve_factory():
    """Start servers on background event loops; tear them all down."""
    started = []

    def factory(**kwargs) -> tuple:
        kwargs.setdefault("port", 0)
        kwargs.setdefault("batch_window_ms", 2.0)
        server = ScheduleServer(**kwargs)
        loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            ready.set()
            loop.run_forever()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10), "server failed to start"
        started.append((server, loop, thread))
        return server, loop, ServeClient(port=server.port, timeout=60)

    yield factory

    for server, loop, thread in started:
        try:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(20)
        except Exception:
            pass
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


class TestCacheEndpoint:
    def test_get_miss_then_roundtrip(self, serve_factory):
        _, _, client = serve_factory()
        key = cache_key_for(SPEC)
        assert client.cache_entry(key) is None
        raw = client.schedule_raw("HAL", resources="2+/-,2*",
                                  algorithm="list")
        assert raw.status == 200
        entry = client.cache_entry(raw.headers["x-repro-key"])
        assert entry is not None
        assert entry["key"] == key
        assert entry["length"] == raw.json()["length"]

    def test_bad_key_is_rejected(self, serve_factory):
        _, _, client = serve_factory()
        assert client.request("GET", "/cache/nope").status == 400
        assert client.request("GET", "/cache/" + "z" * 64).status == 400

    def test_post_installs_an_entry(self, serve_factory):
        server_a, _, client_a = serve_factory()
        _, _, client_b = serve_factory()
        raw = client_a.schedule_raw("HAL", resources="2+/-,2*",
                                    algorithm="list")
        key = raw.headers["x-repro-key"]
        entry = client_a.cache_entry(key)
        import json as json_mod

        posted = client_b.request(
            "POST",
            f"/cache/{key}",
            json_mod.dumps(entry, sort_keys=True).encode("utf-8"),
        )
        assert posted.status == 200
        assert client_b.cache_entry(key) == entry
        assert client_b.metrics()["peer_received"] == 1
        # B now serves the job from cache, never computing it.
        served = client_b.schedule_raw("HAL", resources="2+/-,2*",
                                       algorithm="list")
        assert served.source == "cache"
        assert client_b.metrics()["computed"] == 0

    def test_get_body_is_the_same_from_memory_and_disk(
        self, serve_factory, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        _, _, warm = serve_factory(cache_dir=cache_dir)
        raw = warm.schedule_raw("HAL", resources="2+/-,2*",
                                algorithm="list")
        key = raw.headers["x-repro-key"]
        from_memory = warm.request("GET", f"/cache/{key}")
        # A second replica on the same directory holds it on disk only.
        _, _, cold = serve_factory(cache_dir=cache_dir)
        from_disk = cold.request("GET", f"/cache/{key}")
        assert from_memory.status == from_disk.status == 200
        assert from_disk.body == from_memory.body

    def test_post_refuses_garbage(self, serve_factory):
        _, _, client = serve_factory()
        key = cache_key_for(SPEC)
        assert client.request(
            "POST", f"/cache/{key}", b"not json"
        ).status == 400
        assert client.request(
            "POST", f"/cache/{key}", b'{"key": "mismatch"}'
        ).status == 400


class TestPeerFetch:
    def test_local_miss_is_served_from_a_peer(self, serve_factory):
        server_a, _, client_a = serve_factory()
        # A computes and holds the entry.
        raw_a = client_a.schedule_raw("HAL", resources="2+/-,2*",
                                      algorithm="list")
        assert raw_a.source == "computed"
        # B lists A as a peer; its local miss peer-fetches.
        _, _, client_b = serve_factory(
            peers=[f"127.0.0.1:{server_a.port}"]
        )
        raw_b = client_b.schedule_raw("HAL", resources="2+/-,2*",
                                      algorithm="list")
        assert raw_b.status == 200
        assert raw_b.source == "cache", "peer fetch is a cache hit"
        # Byte-determinism holds across the peer hop.
        assert raw_b.body == raw_a.body
        metrics_b = client_b.metrics()
        assert metrics_b["peer_hits"] == 1
        assert metrics_b["computed"] == 0
        assert client_a.metrics()["peer_served"] == 1

    def test_dead_peer_degrades_to_local_compute(self, serve_factory):
        # Nothing listens on this port: connection refused, fast.
        _, _, client = serve_factory(
            peers=["127.0.0.1:9"], peer_timeout_s=0.5
        )
        raw = client.schedule_raw("HAL", resources="2+/-,2*",
                                  algorithm="list")
        assert raw.status == 200, "a dead peer never fails a request"
        assert raw.source == "computed"
        metrics = client.metrics()
        assert metrics["peer_fetch_errors"] >= 1
        assert metrics["computed"] == 1

    def test_publish_reaches_the_peer(self, serve_factory):
        server_b, _, client_b = serve_factory()
        _, _, client_a = serve_factory(
            peers=[f"127.0.0.1:{server_b.port}"], publish="sync"
        )
        raw = client_a.schedule_raw("HAL", resources="2+/-,2*",
                                    algorithm="list")
        key = raw.headers["x-repro-key"]
        assert client_a.metrics()["published"] == 1
        entry = client_b.cache_entry(key)
        assert entry is not None and entry["key"] == key
        assert client_b.metrics()["peer_received"] == 1

    def test_publish_to_dead_peer_never_fails_the_request(
        self, serve_factory
    ):
        for mode in ("sync", "async"):
            server, loop, client = serve_factory(
                peers=["127.0.0.1:9"],
                peer_timeout_s=0.5,
                publish=mode,
            )
            raw = client.schedule_raw("HAL", resources="2+/-,2*",
                                      algorithm="list")
            assert raw.status == 200, f"publish={mode} failed the request"
            assert raw.json()["length"] == 8
            # The failed delivery is a counter, nothing more.  Stop the
            # server first for the async mode: stop() flushes the
            # publisher, making the counter deterministic.
            asyncio.run_coroutine_threadsafe(
                server.stop(), loop
            ).result(30)
            assert server.engine.cache.publish_errors == 1


def stale_fir_entry():
    """An unproved FIR anytime incumbent, cut short by its node budget."""
    engine = BatchEngine(compute_gaps=True, capture_schedules=True)
    partial = Improver(engine, "FIR", "2+/-,2*", slice_nodes=200)
    partial.run(nodes=1_000)
    stale = engine.cache.lookup(partial.key)
    assert not anytime_meta(stale)["proved"]
    return stale


class TestStaleAnytimePublish:
    """A peer publishing an anytime entry the receiver already out-ranks
    is a healthy exchange: nothing is stored, nothing is an error."""

    def test_receiver_answers_not_stored(self, serve_factory):
        server, _, client = serve_factory()
        stale = stale_fir_entry()
        improve_once(server.engine, "FIR", "2+/-,2*")  # proves 11
        before = client.metrics()
        posted = client.request(
            "POST",
            f"/cache/{stale.key}",
            json.dumps(entry_payload_of(stale), sort_keys=True).encode(),
        )
        assert posted.status == 200
        assert posted.json() == {"stored": False, "key": stale.key}
        after = client.metrics()
        assert after["errors"] == before["errors"] == 0
        assert after["peer_received"] == before["peer_received"]
        kept = client.cache_entry(stale.key)
        assert kept["length"] == 11
        assert kept["artifact"]["meta"]["bnb"]["proved"] is True

    def test_sender_counts_a_delivery_and_keeps_its_breaker_closed(
        self, serve_factory
    ):
        server, _, client = serve_factory()
        stale = stale_fir_entry()
        improve_once(server.engine, "FIR", "2+/-,2*")
        # One failure would open this breaker.
        sender = ClusterStore(
            [f"127.0.0.1:{server.port}"],
            publish="sync",
            breaker_threshold=1,
        )
        try:
            sender.put(stale)
            stats = sender.peer_stats()
        finally:
            sender.close()
        assert stats["published"] == 1
        assert stats["publish_errors"] == 0
        assert stats["peer_breakers_open"] == 0
        assert stats["peer_breaker_opened"] == 0
        assert client.metrics()["errors"] == 0
