"""Corrupt and torn on-disk cache entries degrade to counted misses —
including under concurrent readers — and never poison peers."""

import json
import threading

from repro import faultlab
from repro.engine.cache import ResultCache
from repro.engine.job import JobResult

KEY = "d" * 64


def result_for(key: str = KEY) -> JobResult:
    return JobResult(
        key=key,
        graph="HAL",
        graph_hash="9" * 64,
        num_ops=11,
        resources="4+/-,4*",
        algorithm="list",
        length=8,
        runtime_s=0.0,
    )


def write_then_corrupt(tmp_path, mutate):
    """Persist one entry, then apply ``mutate(path)`` to its shard
    file; returns the cache directory."""
    cache_dir = tmp_path / "cache"
    writer = ResultCache(cache_dir)
    writer.put(result_for())
    mutate(writer._path(KEY))
    return cache_dir


def truncate_half(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


class TestCorruptEntries:
    def test_torn_entry_is_a_counted_miss_and_removed(self, tmp_path):
        cache_dir = write_then_corrupt(tmp_path, truncate_half)
        reader = ResultCache(cache_dir)
        assert reader.get(KEY) is None
        assert reader.stats()["corrupt_dropped"] == 1
        # The wreck is gone; the next read is a plain miss.
        assert reader.get(KEY) is None
        assert reader.stats()["corrupt_dropped"] == 1

    def test_schema_garbage_also_counts(self, tmp_path):
        def scramble(path):
            path.write_text(
                json.dumps({"length": "not-a-schedule"}),
                encoding="utf-8",
            )

        reader = ResultCache(write_then_corrupt(tmp_path, scramble))
        assert reader.get(KEY) is None
        assert reader.stats()["corrupt_dropped"] == 1

    def test_undecodable_bytes_also_count(self, tmp_path):
        """A shard that is not UTF-8 is a wreck like any other, not an
        exception out of the read path."""

        def garble(path):
            path.write_bytes(b'{"key": "\xff\xfe"}')

        cache_dir = write_then_corrupt(tmp_path, garble)
        assert ResultCache(cache_dir).export_entry(KEY) is None
        reader = ResultCache(cache_dir)
        assert reader.get(KEY) is None
        assert reader.stats()["corrupt_dropped"] == 1

    def test_corrupt_entry_never_exported_to_peers(self, tmp_path):
        cache_dir = write_then_corrupt(tmp_path, truncate_half)
        reader = ResultCache(cache_dir)
        assert reader.export_entry(KEY) is None

    def test_concurrent_readers_all_miss_without_error(self, tmp_path):
        cache_dir = write_then_corrupt(tmp_path, truncate_half)
        readers = [ResultCache(cache_dir) for _ in range(8)]
        barrier = threading.Barrier(len(readers))
        outcomes = [None] * len(readers)
        failures = []

        def read(index, cache):
            barrier.wait()
            try:
                outcomes[index] = cache.get(KEY)
            except Exception as exc:  # pragma: no cover - the bug
                failures.append(exc)

        threads = [
            threading.Thread(target=read, args=(i, c))
            for i, c in enumerate(readers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not failures
        # Every reader degraded to a miss; at least the first to see
        # the wreck counted and removed it (later readers may find the
        # file already gone, which is a plain miss).
        assert outcomes == [None] * len(readers)
        assert sum(c.stats()["corrupt_dropped"] for c in readers) >= 1
        assert not ResultCache(cache_dir)._path(KEY).exists()

    def test_overwrite_heals_a_corrupt_entry(self, tmp_path):
        cache_dir = write_then_corrupt(tmp_path, truncate_half)
        cache = ResultCache(cache_dir)
        assert cache.get(KEY) is None
        cache.put(result_for())
        fresh = ResultCache(cache_dir)
        hit = fresh.get(KEY)
        assert hit is not None and hit.length == 8


class TestFaultlabTornWrite:
    def test_injected_torn_write_round_trips_as_counted_miss(
        self, monkeypatch, tmp_path
    ):
        """End-to-end: the faultlab torn-write knob persists half an
        entry, and the read path quarantines it like any real torn
        write."""
        monkeypatch.setenv("REPRO_FAULTLAB", "1")
        monkeypatch.setenv("REPRO_FAULT_TORN_WRITE", KEY[:8])
        faultlab.refresh()
        try:
            cache_dir = tmp_path / "cache"
            ResultCache(cache_dir).put(result_for())
            reader = ResultCache(cache_dir)
            assert reader.get(KEY) is None
            assert reader.stats()["corrupt_dropped"] == 1
        finally:
            monkeypatch.undo()
            faultlab.refresh()
