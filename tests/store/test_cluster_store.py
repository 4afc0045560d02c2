"""ClusterStore unit tests with injected peer transports.

Everything network-shaped is a callable here: ``fetch`` and ``push``
stand in for :mod:`repro.store.peers`, so these tests pin the tier
policy — walk order, failure-degrades-to-miss, publish-never-raises —
without opening a socket.
"""

import dataclasses
import json
import threading

import pytest

from repro.engine.cache import ENTRY_FORMAT
from repro.engine.job import JobResult
from repro.errors import ReproError
from repro.store import (
    ClusterStore,
    PeerError,
    entry_payload_of,
    parse_entry,
)

PEERS = ["127.0.0.1:9001", "127.0.0.2:9002", "127.0.0.3:9003"]


def make_result(key: str, length: int = 8, **overrides) -> JobResult:
    fields = dict(
        key=key,
        graph="HAL",
        graph_hash="h" * 64,
        num_ops=11,
        resources="2+/-,2*",
        algorithm="list(ready)",
        length=length,
        runtime_s=0.001,
    )
    fields.update(overrides)
    return JobResult(**fields)


def key_of(char: str) -> str:
    return char * 64


class RecordingTransport:
    """A scriptable peer network: per-peer entry maps or exceptions."""

    def __init__(self, holdings=None, failing=()):
        self.holdings = holdings or {}
        self.failing = set(failing)
        self.fetches = []
        self.pushes = []
        self.lock = threading.Lock()

    def fetch(self, host, port, key, timeout):
        name = f"{host}:{port}"
        with self.lock:
            self.fetches.append((name, key))
        if name in self.failing:
            raise PeerError(f"peer {name} is down")
        entry = self.holdings.get(name, {}).get(key)
        return entry

    def push(self, host, port, key, payload, timeout):
        name = f"{host}:{port}"
        with self.lock:
            self.pushes.append((name, key, payload))
        if name in self.failing:
            raise PeerError(f"peer {name} is down")


def make_store(transport, **kwargs):
    kwargs.setdefault("publish", "sync")
    return ClusterStore(
        PEERS,
        fetch=transport.fetch,
        push=transport.push,
        **kwargs,
    )


class TestConstruction:
    def test_no_peers_degenerates_to_local(self):
        store = ClusterStore([])
        assert store.publish_mode == "off"
        assert store.fetch_missing([key_of("a")]) == {}
        assert store.peer_stats()["peers"] == 0

    def test_rejects_bad_config(self):
        with pytest.raises(ReproError):
            ClusterStore(PEERS, publish="maybe")
        with pytest.raises(ReproError):
            ClusterStore(PEERS, publish_fanout=-1)
        with pytest.raises(ReproError):
            ClusterStore(PEERS, peer_timeout_s=0)
        with pytest.raises(ReproError):
            ClusterStore(["127.0.0.1:9001", "9001"])
        with pytest.raises(ReproError):
            ClusterStore(["not-an-address"])

    def test_ring_members_are_the_peers(self):
        store = make_store(RecordingTransport())
        assert sorted(store.ring.members) == sorted(PEERS)


class TestFetch:
    def test_fetch_walks_home_replica_first(self):
        key = key_of("a")
        home = make_store(RecordingTransport()).ring.preference(key)[0]
        result = make_result(key)
        transport = RecordingTransport(
            holdings={home: {key: entry_payload_of(result)}}
        )
        store = make_store(transport)
        found = store.fetch_missing([key])
        assert found[key].length == result.length
        # One probe: the home replica answered, the walk stopped.
        assert transport.fetches == [(home, key)]
        assert store.peer_stats()["peer_hits"] == 1
        # fetch_missing is pure network: nothing was installed.
        assert store.get(key) is None

    def test_downed_home_fails_over_along_the_ring(self):
        key = key_of("b")
        walk = make_store(RecordingTransport()).ring.preference(key)
        result = make_result(key)
        transport = RecordingTransport(
            holdings={walk[1]: {key: entry_payload_of(result)}},
            failing=[walk[0]],
        )
        store = make_store(transport)
        found = store.fetch_missing([key])
        assert found[key].length == result.length
        stats = store.peer_stats()
        assert stats["peer_hits"] == 1
        assert stats["peer_fetch_errors"] == 1

    def test_clean_miss_everywhere(self):
        transport = RecordingTransport()
        store = make_store(transport)
        assert store.fetch_missing([key_of("c")]) == {}
        stats = store.peer_stats()
        assert stats["peer_misses"] == 1
        assert stats["peer_fetch_errors"] == 0
        assert len(transport.fetches) == len(PEERS)

    def test_all_peers_down_degrades_to_miss(self):
        transport = RecordingTransport(failing=PEERS)
        store = make_store(transport)
        assert store.fetch_missing([key_of("d")]) == {}
        stats = store.peer_stats()
        assert stats["peer_fetch_errors"] == len(PEERS)
        assert stats["peer_misses"] == 1

    def test_corrupt_payload_is_a_miss_not_an_exception(self):
        key = key_of("e")
        walk = make_store(RecordingTransport()).ring.preference(key)
        for garbage in (
            "not a dict",
            {"format": "repro-result-v99", "key": key},
            {"format": ENTRY_FORMAT},  # missing required fields
            entry_payload_of(make_result(key_of("f"))),  # wrong key
            entry_payload_of(
                make_result(key, length=-1, error="boom")
            ),
        ):
            transport = RecordingTransport(
                holdings={walk[0]: {key: garbage}}
            )
            store = make_store(transport)
            assert store.fetch_missing([key]) == {}
            assert store.peer_stats()["peer_fetch_errors"] >= 1

    def test_misbehaving_transport_stub_still_degrades(self):
        def explode(host, port, key, timeout):
            raise RuntimeError("not even a PeerError")

        store = ClusterStore(
            PEERS, fetch=explode, push=lambda *a, **k: None
        )
        assert store.fetch_missing([key_of("a")]) == {}
        assert store.peer_stats()["peer_fetch_errors"] == len(PEERS)


class TestPublish:
    def test_put_publishes_to_first_ring_successor(self):
        key = key_of("a")
        transport = RecordingTransport()
        store = make_store(transport)
        store.put(make_result(key))
        assert [name for name, _, _ in transport.pushes] == [
            store.ring.preference(key)[0]
        ]
        payload = json.loads(transport.pushes[0][2].decode("utf-8"))
        assert payload["format"] == ENTRY_FORMAT
        assert payload["key"] == key
        assert store.peer_stats()["published"] == 1

    def test_fanout_zero_publishes_to_every_peer(self):
        transport = RecordingTransport()
        store = make_store(transport, publish_fanout=0)
        store.put(make_result(key_of("b")))
        assert sorted(name for name, _, _ in transport.pushes) == sorted(
            PEERS
        )

    def test_error_results_are_never_published(self):
        transport = RecordingTransport()
        store = make_store(transport)
        store.put(make_result(key_of("c"), length=-1, error="boom"))
        assert transport.pushes == []

    def test_install_never_publishes(self):
        transport = RecordingTransport()
        store = make_store(transport)
        store.install(make_result(key_of("d")))
        assert transport.pushes == []
        assert store.get(key_of("d")) is not None

    def test_publish_to_dead_peer_never_raises(self):
        transport = RecordingTransport(failing=PEERS)
        store = make_store(transport, publish_fanout=0)
        store.put(make_result(key_of("e")))  # must not raise
        stats = store.peer_stats()
        assert stats["publish_errors"] == len(PEERS)
        assert stats["published"] == 0
        # The local tiers still hold the result.
        assert store.get(key_of("e")) is not None

    def test_async_publish_flushes(self):
        transport = RecordingTransport()
        store = ClusterStore(
            PEERS,
            publish="async",
            fetch=transport.fetch,
            push=transport.push,
        )
        for char in "abcdef":
            store.put(make_result(key_of(char)))
        assert store.flush(timeout=10.0)
        assert len(transport.pushes) == 6
        assert store.peer_stats()["published"] == 6
        assert store.close()

    def test_async_publish_to_dead_peers_never_fails_put(self):
        transport = RecordingTransport(failing=PEERS)
        store = ClusterStore(
            PEERS,
            publish="async",
            fetch=transport.fetch,
            push=transport.push,
        )
        store.put(make_result(key_of("a")))
        assert store.close()
        assert store.peer_stats()["publish_errors"] == 1

    def test_publish_off_still_fetches(self):
        key = key_of("a")
        walk = make_store(RecordingTransport()).ring.preference(key)
        transport = RecordingTransport(
            holdings={
                walk[0]: {key: entry_payload_of(make_result(key))}
            }
        )
        store = make_store(transport, publish="off")
        store.put(make_result(key_of("b")))
        assert transport.pushes == []
        assert store.fetch_missing([key])[key].length == 8


class TestEntryRoundTrip:
    def test_payload_matches_disk_entry(self, tmp_path):
        result = make_result(key_of("a"))
        store = ClusterStore([], cache_dir=tmp_path)
        store.put(result)
        exported = store.export_entry(result.key)
        assert exported == entry_payload_of(result)
        # And what put() wrote to disk parses to the same document.
        shard = tmp_path / result.key[:2] / f"{result.key}.json"
        assert json.loads(shard.read_text()) == exported

    def test_parse_entry_round_trips(self):
        result = make_result(key_of("b"), gap=0)
        clone = parse_entry(entry_payload_of(result), result.key)
        assert clone == dataclasses.replace(result, cached=False)

    def test_parse_entry_refuses_error_results(self):
        bad = entry_payload_of(
            make_result(key_of("c"), length=-1, error="boom")
        )
        with pytest.raises(PeerError):
            parse_entry(bad, key_of("c"))

    def test_export_entry_is_stats_free(self):
        store = ClusterStore([])
        store.put(make_result(key_of("d")))
        before = store.stats()
        assert store.export_entry(key_of("d")) is not None
        assert store.export_entry(key_of("e")) is None
        assert store.stats() == before
