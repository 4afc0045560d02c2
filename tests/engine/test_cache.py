"""Tests for the sharded result store: hit/miss semantics, shard
layout, LRU eviction, corruption, and the index."""

import dataclasses
import json
import os

import pytest

from repro.engine.cache import SHARD_WIDTH, ResultCache
from repro.engine.job import JobResult
from repro.errors import ReproError


def _result(key="a" * 64, length=8, artifact=None):
    return JobResult(
        key=key,
        graph="HAL",
        graph_hash="h" * 64,
        num_ops=11,
        resources="2+/-,2*",
        algorithm="list(ready)",
        length=length,
        runtime_s=0.001,
        artifact=artifact,
    )


def _keys(count):
    return [f"{index:064x}" for index in range(count)]


def _shard_path(cache_dir, key):
    return cache_dir / key[:SHARD_WIDTH] / f"{key}.json"


class TestMemoryLayer:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("a" * 64) is None
        cache.put(_result())
        hit = cache.get("a" * 64)
        assert hit is not None
        assert hit.length == 8
        assert hit.cached is True
        assert cache.stats() == {
            "hits": 1, "misses": 1, "stored": 1, "evictions": 0,
            "corrupt_dropped": 0,
        }

    def test_contains_and_len_agree(self):
        cache = ResultCache()
        cache.put(_result())
        assert ("a" * 64) in cache
        assert ("b" * 64) not in cache
        assert len(cache) == 1

    def test_memory_only_eviction(self):
        cache = ResultCache(max_entries=2)
        for key in _keys(3):
            cache.put(_result(key=key))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert _keys(3)[0] not in cache

    def test_require_predicate_degrades_to_miss(self):
        cache = ResultCache()
        cache.put(_result())
        def needs_artifact(result):
            return result.artifact is not None

        assert cache.get("a" * 64, require=needs_artifact) is None
        assert cache.stats()["misses"] == 1
        # The plain entry survives for callers without the requirement.
        assert cache.get("a" * 64) is not None

    def test_put_normalizes_cached_flag(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        cache.put(dataclasses.replace(_result(), cached=True))
        on_disk = json.loads(
            _shard_path(cache_dir, "a" * 64).read_text("utf-8")
        )
        # Stored entries are canonical (not marked cached); the flag is
        # applied on the way out.
        assert on_disk["cached"] is False
        assert cache.get("a" * 64).cached is True


class TestShardLayout:
    def test_entries_land_in_prefix_shards(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        keys = ["ab" + "0" * 62, "cd" + "0" * 62, "ab" + "1" * 62]
        for key in keys:
            cache.put(_result(key=key))
        assert sorted(
            p.name for p in cache_dir.iterdir() if p.is_dir()
        ) == ["ab", "cd"]
        for key in keys:
            assert _shard_path(cache_dir, key).exists()
        # Nothing at the top level but shard directories.
        assert not list(cache_dir.glob("*.json"))

    def test_top_level_entry_is_not_served(self, tmp_path):
        """Only shard paths hold entries: a ``<key>.json`` at the top
        level is neither served nor counted, and is left alone."""
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        stray = cache_dir / ("a" * 64 + ".json")
        stray.write_text(
            json.dumps(_result(length=13).to_dict()), encoding="utf-8"
        )

        cache = ResultCache(cache_dir)
        assert ("a" * 64) not in cache
        assert cache.get("a" * 64) is None
        assert len(cache) == 0
        assert cache.index() == {}
        assert stray.exists()

    def test_persists_across_instances(self, tmp_path):
        first = ResultCache(tmp_path / "cache")
        first.put(_result(length=13))

        second = ResultCache(tmp_path / "cache")
        hit = second.get("a" * 64)
        assert hit is not None
        assert hit.length == 13
        assert hit.cached is True
        assert second.stats()["hits"] == 1

    def test_len_sees_disk_entries(self, tmp_path):
        """`len(cache) == 0` must never coexist with `key in cache`."""
        ResultCache(tmp_path / "cache").put(_result())
        fresh = ResultCache(tmp_path / "cache")
        assert ("a" * 64) in fresh
        assert len(fresh) == 1

    def test_contains_sees_entries_written_after_scan(self, tmp_path):
        reader = ResultCache(tmp_path / "cache")
        writer = ResultCache(tmp_path / "cache")
        writer.put(_result())
        assert ("a" * 64) in reader
        assert len(reader) == 1

    def test_corrupt_shard_entry_degrades_to_miss(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        cache.put(_result())
        _shard_path(cache_dir, "a" * 64).write_text("{not json", "utf-8")

        fresh = ResultCache(cache_dir)
        assert fresh.get("a" * 64) is None
        assert fresh.stats()["misses"] == 1
        # The wreck no longer occupies index capacity.
        assert len(fresh) == 0

    def test_no_tmp_litter(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        for key in _keys(5):
            cache.put(_result(key=key))
        litter = [
            p for p in cache_dir.rglob("*") if p.suffix == ".tmp"
        ]
        assert litter == []
        assert len(list(cache_dir.rglob("*.json"))) == 5


class TestEviction:
    def test_rejects_non_positive_bound(self):
        with pytest.raises(ReproError):
            ResultCache(max_entries=0)

    def test_never_exceeds_bound(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_entries=10)
        for index, key in enumerate(_keys(50)):
            cache.put(_result(key=key))
            assert len(cache) <= 10, f"over capacity after put {index}"
        assert cache.evictions == 40
        assert len(list((tmp_path / "cache").rglob("*.json"))) == 10

    def test_touch_on_hit_protects_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_entries=2)
        first, second, third = _keys(3)
        cache.put(_result(key=first))
        cache.put(_result(key=second))
        assert cache.get(first) is not None  # refresh recency
        cache.put(_result(key=third))
        assert first in cache
        assert second not in cache

    def test_lru_order_survives_across_processes(self, tmp_path):
        """Recency lives in shard mtimes, not one instance's memory."""
        keys = _keys(3)
        writer = ResultCache(tmp_path / "cache")
        for offset, key in enumerate(keys):
            writer.put(_result(key=key))
            # Force distinct mtimes regardless of filesystem resolution.
            os.utime(
                _shard_path(tmp_path / "cache", key),
                (1_000_000 + offset, 1_000_000 + offset),
            )

        bounded = ResultCache(tmp_path / "cache", max_entries=3)
        bounded.put(_result(key="f" * 64))
        assert keys[0] not in bounded
        assert keys[1] in bounded and keys[2] in bounded


class TestIndex:
    def test_per_shard_counts_and_bytes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        keys = ["ab" + "0" * 62, "ab" + "1" * 62, "cd" + "0" * 62]
        for key in keys:
            cache.put(_result(key=key))
        index = cache.index()
        assert index["ab"]["entries"] == 2
        assert index["cd"]["entries"] == 1
        for shard, info in index.items():
            on_disk = sum(
                p.stat().st_size for p in (cache_dir / shard).glob("*.json")
            )
            assert info["bytes"] == on_disk
        assert cache.total_bytes() == sum(
            info["bytes"] for info in index.values()
        )

    def test_fresh_instance_rebuilds_index(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for key in _keys(4):
            cache.put(_result(key=key))
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.index() == cache.index()

    def test_memory_only_index(self):
        cache = ResultCache()
        cache.put(_result())
        assert cache.index() == {"memory": {"entries": 1, "bytes": 0}}
        assert cache.total_bytes() == 0


class TestLazyScan:
    def test_unbounded_open_does_not_walk_the_store(self, tmp_path):
        ResultCache(tmp_path / "cache").put(_result())
        fresh = ResultCache(tmp_path / "cache")
        assert fresh._scanned is False  # no O(store) walk at open
        assert len(fresh) == 1  # first index use triggers it
        assert fresh._scanned is True

    def test_bounded_open_scans_eagerly(self, tmp_path):
        ResultCache(tmp_path / "cache").put(_result())
        bounded = ResultCache(tmp_path / "cache", max_entries=5)
        assert bounded._scanned is True

    def test_scan_after_activity_keeps_recency(self, tmp_path):
        """Keys touched before the lazy scan stay newer than the
        scanned backlog, so they survive the next eviction."""
        keys = _keys(3)
        writer = ResultCache(tmp_path / "cache")
        for offset, key in enumerate(keys):
            writer.put(_result(key=key))
            os.utime(
                _shard_path(tmp_path / "cache", key),
                (1_000_000 + offset, 1_000_000 + offset),
            )

        cache = ResultCache(tmp_path / "cache")  # unscanned
        assert cache.get(keys[0]) is not None  # oldest mtime, but touched
        assert len(cache) == 3  # scan merges the backlog
        cache.max_entries = 2
        cache._evict()
        assert keys[0] in cache  # recency preserved through the merge
        assert keys[1] not in cache


class TestCrossProcess:
    def test_externally_evicted_entry_leaves_no_phantom(self, tmp_path):
        """A get() on an indexed key whose shard file another process
        deleted must forget the key, not let a phantom hold capacity."""
        keys = _keys(3)
        writer = ResultCache(tmp_path / "cache")
        for key in keys:
            writer.put(_result(key=key))

        reader = ResultCache(tmp_path / "cache", max_entries=3)
        os.unlink(_shard_path(tmp_path / "cache", keys[0]))  # "process A"
        assert reader.get(keys[0]) is None
        assert len(reader) == 2
        # The freed slot is usable: no live entry gets evicted for it.
        reader.put(_result(key="f" * 64))
        assert reader.evictions == 0
        assert keys[1] in reader and keys[2] in reader

    def test_over_capacity_store_trimmed_on_open(self, tmp_path):
        writer = ResultCache(tmp_path / "cache")
        for key in _keys(10):
            writer.put(_result(key=key))

        bounded = ResultCache(tmp_path / "cache", max_entries=3)
        assert len(bounded) == 3
        assert bounded.evictions == 7
        assert len(list((tmp_path / "cache").rglob("*.json"))) == 3

    def test_externally_written_entry_still_enforces_bound(self, tmp_path):
        """Entries another process wrote register on get()/contains —
        and the bound is re-enforced right there, not at the next put."""
        keys = _keys(3)
        bounded = ResultCache(tmp_path / "cache", max_entries=2)
        bounded.put(_result(key=keys[0]))
        bounded.put(_result(key=keys[1]))

        writer = ResultCache(tmp_path / "cache")
        writer.put(_result(key=keys[2]))
        assert bounded.get(keys[2]) is not None
        assert len(bounded) == 2
        assert bounded.evictions == 1

        another = "f" * 64
        writer.put(_result(key=another))
        assert another in bounded
        assert len(bounded) == 2

    def test_eviction_rescues_entry_touched_by_peer(self, tmp_path):
        """A victim whose shard file a peer touched after we indexed it
        is re-ranked instead of evicted: the on-disk mtime governs."""
        keys = _keys(2)
        bounded = ResultCache(tmp_path / "cache", max_entries=2)
        for offset, key in enumerate(keys):
            bounded.put(_result(key=key))
            # Age the entries distinctly (both on disk and in this
            # instance's belief) so filesystem timestamp granularity
            # cannot blur the recency comparisons below.
            stamp = (1_000_000 + offset, 1_000_000 + offset)
            os.utime(_shard_path(tmp_path / "cache", key), stamp)
            bounded._note(key, float(stamp[0]))

        # A peer process touches the would-be victim (throttling off so
        # the touch reaches the disk immediately).
        peer = ResultCache(tmp_path / "cache")
        peer.TOUCH_INTERVAL_S = 0.0
        assert peer.get(keys[0]) is not None

        bounded.put(_result(key="f" * 64))
        assert keys[0] in bounded  # rescued: peer's touch was seen
        assert keys[1] not in bounded  # the genuinely-oldest one died



    def test_contains_is_false_after_peer_eviction(self, tmp_path):
        """Membership agrees with retrieval: an indexed entry whose
        shard file a peer evicted is neither `in` the cache nor
        servable, and the phantom is forgotten."""
        keys = _keys(2)
        writer = ResultCache(tmp_path / "cache")
        for key in keys:
            writer.put(_result(key=key))

        reader = ResultCache(tmp_path / "cache", max_entries=2)
        os.unlink(_shard_path(tmp_path / "cache", keys[0]))
        assert keys[0] not in reader
        assert reader.get(keys[0]) is None
        assert len(reader) == 1

    def test_contains_does_not_force_scan_on_unbounded_store(self, tmp_path):
        ResultCache(tmp_path / "cache").put(_result())
        fresh = ResultCache(tmp_path / "cache")
        assert ("a" * 64) in fresh  # answered by one stat
        assert ("b" * 64) not in fresh
        assert fresh._scanned is False


class TestEntryFormat:
    def test_disk_entries_carry_version_tag(self, tmp_path):
        from repro.engine.cache import ENTRY_FORMAT

        cache = ResultCache(tmp_path / "cache")
        cache.put(_result())
        on_disk = json.loads(
            _shard_path(tmp_path / "cache", "a" * 64).read_text("utf-8")
        )
        assert on_disk["format"] == ENTRY_FORMAT
        # And the tag is transparent to loading.
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.get("a" * 64).length == 8

    @pytest.mark.parametrize("algorithm", ["meta2", "bnb-anytime"])
    def test_export_equals_the_shard_file(self, tmp_path, algorithm):
        """The document served to peers is the one on disk, whether the
        entry is read from a warm memory layer or a cold store."""
        from repro.engine.batch import BatchEngine
        from repro.engine.job import JobSpec

        cache_dir = tmp_path / "cache"
        engine = BatchEngine(cache_dir=cache_dir, capture_schedules=True)
        spec = JobSpec.make("HAL", "2+/-,2*", algorithm)
        key = engine.submit([spec])[0].key
        on_disk = json.loads(_shard_path(cache_dir, key).read_text("utf-8"))
        assert on_disk["artifact"] is not None
        assert engine.cache.export_entry(key) == on_disk
        assert ResultCache(cache_dir).export_entry(key) == on_disk

    def test_untagged_legacy_entry_exports_with_the_tag(self, tmp_path):
        from repro.engine.cache import ENTRY_FORMAT

        cache_dir = tmp_path / "cache"
        ResultCache(cache_dir).put(_result())
        path = _shard_path(cache_dir, "a" * 64)
        legacy = json.loads(path.read_text("utf-8"))
        del legacy["format"]
        path.write_text(json.dumps(legacy), encoding="utf-8")

        exported = ResultCache(cache_dir).export_entry("a" * 64)
        assert exported == {**legacy, "format": ENTRY_FORMAT}

    def test_lookup_is_stats_and_recency_free(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ResultCache(cache_dir).put(_result())
        path = _shard_path(cache_dir, "a" * 64)
        os.utime(path, (1_000_000, 1_000_000))

        cold = ResultCache(cache_dir)
        assert cold.lookup("a" * 64).length == 8
        assert cold.lookup("b" * 64) is None
        assert cold.stats()["hits"] == cold.stats()["misses"] == 0
        assert path.stat().st_mtime == 1_000_000
        assert len(cold._memory) == 0  # nothing registered either


class TestFailureRobustness:
    def test_failed_disk_write_registers_nothing(self, tmp_path, monkeypatch):
        """A put whose disk write fails must not leave a ghost in any
        layer: the capacity bound and the index stay truthful."""
        cache = ResultCache(tmp_path / "cache", max_entries=2)
        cache.put(_result(key=_keys(1)[0]))

        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(ReproError):
            cache.put(_result(key="f" * 64))
        monkeypatch.undo()

        assert ("f" * 64) not in cache
        assert cache.get("f" * 64) is None
        assert len(cache) == 1
        assert cache.stats()["stored"] == 1

    def test_transient_read_error_does_not_destroy_entry(
        self, tmp_path, monkeypatch
    ):
        from pathlib import Path

        cache = ResultCache(tmp_path / "cache", max_entries=5)
        cache.put(_result())
        fresh = ResultCache(tmp_path / "cache", max_entries=5)

        real_read = Path.read_text

        def flaky_read(self, *args, **kwargs):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(Path, "read_text", flaky_read)
        assert fresh.get("a" * 64) is None  # miss, but not destruction
        monkeypatch.setattr(Path, "read_text", real_read)
        hit = fresh.get("a" * 64)
        assert hit is not None and hit.length == 8

    def test_newer_format_entry_preserved(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(_result())
        path = _shard_path(tmp_path / "cache", "a" * 64)
        path.write_text(
            json.dumps({"format": "repro-result-v99", "payload": "??"}),
            encoding="utf-8",
        )

        fresh = ResultCache(tmp_path / "cache")
        assert fresh.get("a" * 64) is None  # unparseable here -> miss
        assert path.exists()  # but a newer engine's entry survives

    def test_membership_probe_never_evicts_the_probed_entry(self, tmp_path):
        """`key in cache` on a peer's old entry must answer truthfully
        — bound enforcement may retire an older entry, but never the
        one whose existence was just confirmed."""
        keys = _keys(2)
        bounded = ResultCache(tmp_path / "cache", max_entries=1)
        bounded.put(_result(key=keys[0]))

        writer = ResultCache(tmp_path / "cache")
        writer.put(_result(key=keys[1]))
        # Make the peer's entry the oldest on disk: still never the
        # victim of its own probe.
        os.utime(
            _shard_path(tmp_path / "cache", keys[1]),
            (1_000_000, 1_000_000),
        )

        assert keys[1] in bounded
        assert len(bounded) == 1  # bound held by evicting keys[0]


class TestMigrationConflicts:
    def test_bulk_trim_of_large_backlog_is_fast(self, tmp_path):
        """Opening a big unbounded store with a small bound trims in
        one O(n log n) pass, not a min() scan per victim."""
        import time as time_mod

        writer = ResultCache(tmp_path / "cache")
        for key in _keys(2000):
            writer.put(_result(key=key))

        started = time_mod.perf_counter()
        bounded = ResultCache(tmp_path / "cache", max_entries=50)
        elapsed = time_mod.perf_counter() - started
        assert len(bounded) == 50
        assert bounded.evictions == 1950
        assert elapsed < 5.0  # dominated by unlinks, not comparisons

    def test_transient_stat_error_does_not_destroy_entry(
        self, tmp_path, monkeypatch
    ):
        """A stat that fails with EIO/EACCES cannot confirm absence —
        membership degrades gracefully and nothing is unlinked."""
        from pathlib import Path

        cache = ResultCache(tmp_path / "cache", max_entries=5)
        cache.put(_result())

        def flaky_stat(self, *args, **kwargs):
            raise OSError(5, "Input/output error")

        real_stat = Path.stat
        monkeypatch.setattr(Path, "stat", flaky_stat)
        assert ("a" * 64) in cache  # still believed present
        monkeypatch.setattr(Path, "stat", real_stat)
        assert ("a" * 64) in cache
        assert cache.get("a" * 64) is not None  # entry intact on disk

    def test_hot_key_still_syncs_disk_mtime(self, tmp_path):
        """A key hit more often than the touch interval must still
        refresh its shard mtime once per interval — hot keys must not
        outrun the throttle and go permanently stale on disk."""
        import time as time_mod

        cache = ResultCache(tmp_path / "cache")
        cache.TOUCH_INTERVAL_S = 0.1
        cache.put(_result())
        path = _shard_path(tmp_path / "cache", "a" * 64)
        os.utime(path, (1_000_000, 1_000_000))  # stale on disk
        cache._synced["a" * 64] = 0.0  # last sync long ago

        deadline = time_mod.time() + 2.0
        while time_mod.time() < deadline:
            cache.get("a" * 64)  # hammered faster than the interval
            if path.stat().st_mtime > 2_000_000:
                break
            time_mod.sleep(0.02)
        assert path.stat().st_mtime > 2_000_000

    def test_put_and_get_protect_their_own_entry(self, tmp_path, monkeypatch):
        """Bound enforcement triggered by a put or hit must exempt the
        entry just stored/served (mtime ties on coarse filesystems)."""
        seen = []
        original = ResultCache._evict

        def spy(self, protect=None):
            seen.append(protect)
            return original(self, protect=protect)

        monkeypatch.setattr(ResultCache, "_evict", spy)
        cache = ResultCache(tmp_path / "cache", max_entries=2)
        key = _keys(1)[0]
        cache.put(_result(key=key))
        assert seen[-1] == key
        fresh = ResultCache(tmp_path / "cache", max_entries=2)
        assert fresh.get(key) is not None
        assert seen[-1] == key

    def test_vanished_cache_dir_degrades_gracefully(self, tmp_path):
        import shutil

        cache = ResultCache(tmp_path / "cache")
        shutil.rmtree(tmp_path / "cache")
        assert len(cache) == 0
        assert cache.index() == {}
        assert cache.get("a" * 64) is None

    def test_transient_stat_error_defers_eviction(self, tmp_path, monkeypatch):
        """When the victim can't be statted (EIO), eviction defers
        rather than destroying an entry it cannot judge."""
        cache = ResultCache(tmp_path / "cache", max_entries=2)
        keys = _keys(3)
        cache.put(_result(key=keys[0]))
        cache.put(_result(key=keys[1]))

        real_stat_entry = ResultCache._stat_entry
        monkeypatch.setattr(
            ResultCache,
            "_stat_entry",
            lambda self, key: (None, False),  # transient: unconfirmed
        )
        cache.put(_result(key=keys[2]))  # over bound, but no victim judged
        monkeypatch.setattr(ResultCache, "_stat_entry", real_stat_entry)
        assert cache.evictions == 0
        assert len(list((tmp_path / "cache").rglob("*.json"))) == 3

        # Once the I/O clears, the next registration trims the backlog.
        cache.put(_result(key="f" * 64))
        assert cache.evictions == 2
        assert len(cache) == 2

    def test_newer_format_entry_not_served_even_if_parseable(self, tmp_path):
        """Field-level parse success proves nothing across format
        versions: a v99 entry with compatible field names must still
        miss (and survive) rather than serve possibly-reinterpreted
        data."""
        cache = ResultCache(tmp_path / "cache")
        cache.put(_result(length=8))
        path = _shard_path(tmp_path / "cache", "a" * 64)
        data = json.loads(path.read_text("utf-8"))
        data["format"] = "repro-result-v99"
        path.write_text(json.dumps(data), encoding="utf-8")

        fresh = ResultCache(tmp_path / "cache")
        assert fresh.get("a" * 64) is None
        assert path.exists()

    def test_peer_removed_entry_not_counted_as_eviction(self, tmp_path):
        keys = _keys(3)
        bounded = ResultCache(tmp_path / "cache", max_entries=2)
        bounded.put(_result(key=keys[0]))
        bounded.put(_result(key=keys[1]))
        os.unlink(_shard_path(tmp_path / "cache", keys[0]))  # peer evicts
        bounded.put(_result(key=keys[2]))  # discovery, not an eviction
        assert len(bounded) == 2
        assert bounded.evictions == 0

    def test_require_rejected_peer_entry_still_counted(self, tmp_path):
        """A disk entry loaded into memory but rejected by `require`
        occupies the store and must be visible to len() and the bound."""
        keys = _keys(2)
        bounded = ResultCache(tmp_path / "cache", max_entries=1)
        bounded.put(_result(key=keys[0]))

        writer = ResultCache(tmp_path / "cache")
        writer.put(_result(key=keys[1]))
        assert bounded.get(keys[1], require=lambda r: False) is None
        assert len(bounded) <= 1  # the bound held despite the rejection

    def test_put_never_clobbers_newer_format_entry(self, tmp_path):
        """A recompute in this process must not destroy a payload only
        a newer engine can read; the result serves from memory only."""
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        cache.put(_result(length=8))
        path = _shard_path(cache_dir, "a" * 64)
        v99 = {"format": "repro-result-v99", "payload": "future"}
        path.write_text(json.dumps(v99), encoding="utf-8")

        fresh = ResultCache(cache_dir)
        assert fresh.export_entry("a" * 64) is None  # never served
        assert fresh.get("a" * 64) is None  # miss: unparseable here
        fresh.put(_result(length=8))  # the recompute that follows
        assert json.loads(path.read_text("utf-8")) == v99  # preserved
        assert fresh.get("a" * 64).length == 8  # memory layer serves

    def test_eviction_spares_newer_format_entries(self, tmp_path):
        """The never-destroy-newer-payloads policy extends to
        eviction: a foreign entry is forgotten, never unlinked."""
        cache_dir = tmp_path / "cache"
        seed = ResultCache(cache_dir)
        keys = _keys(2)
        seed.put(_result(key=keys[0]))
        v99_path = _shard_path(cache_dir, keys[0])
        v99 = {"format": "repro-result-v99", "payload": "future"}
        v99_path.write_text(json.dumps(v99), encoding="utf-8")
        os.utime(v99_path, (1_000_000, 1_000_000))  # oldest on disk

        bounded = ResultCache(cache_dir, max_entries=1)
        bounded.put(_result(key=keys[1]))  # over bound; v99 is oldest
        assert v99_path.exists()
        assert json.loads(v99_path.read_text("utf-8")) == v99
        assert bounded.evictions == 0  # forgotten, not evicted
        assert keys[1] in bounded
