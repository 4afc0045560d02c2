"""BatchEngine over a ClusterStore: the two-phase miss resolution.

The engine must consult the cluster tier between its local cache pass
and the compute phase — outside the submission lock — and a fetched
entry must count as a cache hit (``cached=True``), never a compute.
"""

import os
import threading

from repro.engine.batch import BatchEngine
from repro.engine.job import JobSpec
from repro.engine.keys import cache_key_for
from repro.store import ClusterStore, PeerError, entry_payload_of

PEERS = ["127.0.0.1:9001", "127.0.0.2:9002"]

SPEC = JobSpec.make("HAL", "2+/-,2*", "list")


def rich_engine(cache):
    """An engine configured the way the serving layer configures one."""
    return BatchEngine(
        cache=cache, compute_gaps=True, capture_schedules=True
    )


def computed_entry():
    """A full-fat entry for SPEC, as another replica would publish it."""
    donor = rich_engine(ClusterStore([]))
    result = donor.submit([SPEC])[0]
    return cache_key_for(SPEC), entry_payload_of(
        donor.cache.lookup(result.key)
    )


class TestPeerResolution:
    def test_peer_hit_skips_compute(self):
        key, entry = computed_entry()
        calls = []

        def fetch(host, port, wanted, timeout):
            calls.append(wanted)
            return entry if wanted == key else None

        store = ClusterStore(
            PEERS, fetch=fetch, push=lambda *a, **k: None
        )
        engine = rich_engine(store)
        result = engine.submit([SPEC])[0]
        assert result.cached, "a peer-fetched result is a cache hit"
        assert result.length == 8
        assert calls, "the engine consulted the cluster tier"
        assert store.peer_stats()["peer_hits"] == 1
        # Installed locally: the next submit is a pure local hit.
        calls.clear()
        again = engine.submit([SPEC])[0]
        assert again.cached and not calls

    def test_fetched_entry_is_installed_without_republishing(self):
        key, entry = computed_entry()
        pushes = []
        store = ClusterStore(
            PEERS,
            publish="sync",
            fetch=lambda host, port, wanted, timeout: entry,
            push=lambda *args, **kwargs: pushes.append(args),
        )
        engine = rich_engine(store)
        assert engine.submit([SPEC])[0].cached
        assert store.lookup(key) is not None
        assert pushes == [], "the cluster already holds a fetched entry"

    def test_unservable_fetched_entry_still_merges_its_payload(self):
        """A peer entry this engine cannot serve (no artifact) is still
        installed, so the fresh compute that replaces it keeps its gap."""
        key, entry = computed_entry()
        assert entry["gap"] is not None
        lean = dict(entry, artifact=None)
        store = ClusterStore(
            PEERS,
            fetch=lambda host, port, wanted, timeout: lean,
            push=lambda *a, **k: None,
        )
        engine = BatchEngine(cache=store, capture_schedules=True)
        result = engine.submit([SPEC])[0]
        assert not result.cached, "an unservable entry is recomputed"
        stored = store.lookup(key)
        assert stored.artifact is not None
        assert stored.gap == entry["gap"]

    def test_peer_failure_falls_back_to_local_compute(self):
        def fetch(host, port, wanted, timeout):
            raise PeerError("peer is down")

        store = ClusterStore(
            PEERS, fetch=fetch, push=lambda *a, **k: None
        )
        engine = rich_engine(store)
        result = engine.submit([SPEC])[0]
        assert not result.cached, "fell back to computing locally"
        assert result.length == 8
        assert store.peer_stats()["peer_fetch_errors"] == len(PEERS)

    def test_fetch_runs_outside_the_submission_lock(self):
        """A slow peer must not serialize concurrent submits."""
        key, entry = computed_entry()
        in_fetch = threading.Event()
        release = threading.Event()

        def fetch(host, port, wanted, timeout):
            in_fetch.set()
            assert release.wait(10), "fetch was never released"
            return entry if wanted == key else None

        store = ClusterStore(
            ["127.0.0.1:9001"], fetch=fetch, push=lambda *a, **k: None
        )
        engine = rich_engine(store)
        slow = threading.Thread(target=engine.submit, args=([SPEC],))
        slow.start()
        try:
            assert in_fetch.wait(10)
            # With the fetch parked mid-network, a different job must
            # still get through the submission lock and compute.
            other = engine.submit(
                [JobSpec.make("FIR", "2+/-,2*", "list")]
            )[0]
            assert other.length > 0
        finally:
            release.set()
            slow.join(30)

    def test_fresh_compute_publishes(self):
        pushes = []

        def push(host, port, key, payload, timeout):
            pushes.append(f"{host}:{port}")

        store = ClusterStore(
            PEERS,
            publish="sync",
            fetch=lambda *a, **k: None,
            push=push,
        )
        engine = rich_engine(store)
        engine.submit([SPEC])
        assert pushes == [store.ring.preference(cache_key_for(SPEC))[0]]

    def test_plain_cache_engines_are_unaffected(self):
        """A plain cache fetches nothing -> the old single-phase path."""
        engine = BatchEngine()
        result = engine.submit([SPEC])[0]
        assert not result.cached
        assert engine.submit([SPEC])[0].cached


class TestRefusedCandidate:
    def test_losing_peer_entry_writes_nothing(self, tmp_path, monkeypatch):
        """A peer entry that loses to the local anytime entry is refused
        without a write, even when the local entry is not servable here
        (it lacks the artifact this engine asks for)."""
        from dataclasses import replace

        from repro.engine import batch
        from repro.engine.cache import ResultCache

        spec = JobSpec.make("HAL", "2+/-,2*", "bnb-anytime")
        cache_dir = tmp_path / "cache"
        # The local incumbent: a proved optimum, stored without artifact.
        lean = BatchEngine(cache_dir=cache_dir).submit([spec])[0]
        assert lean.artifact is None
        key = lean.key
        path = cache_dir / key[:2] / f"{key}.json"
        os.utime(path, (1_000_000, 1_000_000))
        before = path.read_bytes()
        # A stale peer incumbent, one step longer, with an artifact.
        rich = BatchEngine(capture_schedules=True).submit([spec])[0]
        stale = entry_payload_of(replace(rich, length=rich.length + 1))

        store = ClusterStore(
            PEERS,
            cache_dir=cache_dir,
            fetch=lambda host, port, wanted, timeout: stale,
            push=lambda *a, **k: None,
        )
        # The recompute fails, so any write could only come from the
        # peer phase.
        monkeypatch.setattr(
            batch,
            "execute_job",
            lambda spec, key, *rest: replace(
                lean, length=-1, error="SchedulingError: stub"
            ),
        )
        engine = BatchEngine(cache=store, capture_schedules=True)
        assert engine.submit([spec])[0].error is not None
        assert store.peer_stats()["peer_hits"] == 1
        assert store.stats()["stored"] == 0
        assert path.stat().st_mtime == 1_000_000
        assert path.read_bytes() == before
        assert ResultCache(cache_dir).lookup(key).length == lean.length
