"""Tests for the batch engine: dedup, cache reuse, parallel equality,
deterministic seeding, and optimality gaps."""

import pytest

from repro.core.scheduler import threaded_schedule
from repro.engine.batch import BatchEngine
from repro.engine.cache import ResultCache
from repro.engine.job import JobSpec
from repro.engine.sweeps import random_dag_sweep, registry_sweep
from repro.graphs import get_graph
from repro.scheduling.resources import ResourceSet


def test_results_match_direct_scheduler_calls():
    jobs = registry_sweep(
        names=("HAL", "FIR"),
        constraints=("2+/-,2*", "2+/-,1*"),
        algorithms=("threaded(meta2)",),
    )
    results = BatchEngine().run(jobs)
    assert len(results) == 4
    for job, result in zip(jobs, results):
        direct = threaded_schedule(
            get_graph(job.graph.name),
            ResourceSet.parse(job.resources),
            meta="meta2",
        )
        assert result.length == direct.length
        assert result.graph == job.graph.name
        assert result.cached is False


def test_within_batch_dedup():
    job = JobSpec.make("hal", "2+/-,2*", "list")
    engine = BatchEngine()
    first, second = engine.run([job, job])
    assert first.length == second.length
    assert first.cached is False
    assert second.cached is True
    assert engine.cache.stats()["stored"] == 1


def test_cache_reuse_across_runs_and_engines(tmp_path):
    jobs = registry_sweep(names=("HAL",), algorithms=("list(ready)",))
    first_engine = BatchEngine(cache_dir=tmp_path / "c")
    cold = first_engine.run(jobs)
    assert [r.cached for r in cold] == [False]

    # Same engine, warm memory layer.
    warm = first_engine.run(jobs)
    assert [r.cached for r in warm] == [True]

    # Fresh engine, warm disk layer.
    second_engine = BatchEngine(cache_dir=tmp_path / "c")
    disk = second_engine.run(jobs)
    assert [r.cached for r in disk] == [True]
    assert disk[0].length == cold[0].length


def test_equivalent_specs_share_cache_entries():
    engine = BatchEngine()
    spelled_one = JobSpec.make("hal", "2+/,2*", "meta2")
    spelled_two = JobSpec.make("HAL", "2+/-,2*", "threaded-meta2")
    a, b = engine.run([spelled_one, spelled_two])
    assert a.key == b.key
    assert b.cached is True


def test_inline_graph_same_cache_key_as_registry():
    engine = BatchEngine()
    by_name = JobSpec.make("hal", "2+/-,2*", "list")
    by_value = JobSpec.make(get_graph("HAL"), "2+/-,2*", "list")
    a, b = engine.run([by_name, by_value])
    assert a.key == b.key


def test_parallel_equals_serial():
    jobs = registry_sweep(
        names=("HAL", "FIR", "FIG1"),
        constraints=("2+/-,2*",),
        algorithms=("list(ready)", "threaded(meta2)"),
    )
    serial = BatchEngine(workers=1).run(jobs)
    parallel = BatchEngine(workers=2).run(jobs)
    assert [r.length for r in parallel] == [r.length for r in serial]
    assert [r.key for r in parallel] == [r.key for r in serial]


def test_random_sweep_deterministic_across_engines():
    sweep = dict(
        sizes=(20, 30), count=2, base_seed=42, algorithms=("meta1",)
    )
    first = BatchEngine().run(random_dag_sweep(**sweep))
    second = BatchEngine().run(random_dag_sweep(**sweep))
    assert [r.length for r in first] == [r.length for r in second]
    assert [r.graph_hash for r in first] == [r.graph_hash for r in second]
    # Different base seed -> different graphs (and cache keys).
    other = BatchEngine().run(
        random_dag_sweep(**{**sweep, "base_seed": 43})
    )
    assert [r.key for r in other] != [r.key for r in first]


def test_optimality_gap_on_small_graphs():
    engine = BatchEngine(compute_gaps=True)
    results = engine.run(
        registry_sweep(
            names=("HAL", "EF"),
            algorithms=("list(critical-path)",),
        )
    )
    hal_result, ef_result = results
    # HAL (11 ops) gets a gap; list(critical-path) hits the optimum 7.
    assert hal_result.gap == 0
    # EF (34 ops) is over the exact-comparator limit.
    assert ef_result.gap is None


def test_rejects_non_jobspec():
    try:
        BatchEngine().run(["HAL"])
    except TypeError:
        pass
    else:
        raise AssertionError("expected TypeError")


def test_shared_cache_object():
    cache = ResultCache()
    jobs = registry_sweep(names=("FIR",), algorithms=("list(ready)",))
    BatchEngine(cache=cache).run(jobs)
    results = BatchEngine(cache=cache).run(jobs)
    assert results[0].cached is True


# ----------------------------------------------------------------------
# Accounting invariants (PR 2 bugfixes).
# ----------------------------------------------------------------------


def test_num_ops_identical_across_algorithms():
    """num_ops is an *input graph* fact: every algorithm on the same
    graph must report the same count, regardless of in-place soft-
    scheduling refinements."""
    from repro.engine.algorithms import algorithm_ids

    jobs = [
        JobSpec.make("hal", "2+/-,2*", algo) for algo in algorithm_ids()
    ]
    results = BatchEngine().run(jobs)
    counts = {r.algorithm: r.num_ops for r in results}
    assert set(counts.values()) == {get_graph("HAL").num_nodes}, counts


def test_gap_eligibility_uses_input_node_count():
    """The exact comparator triggers on the input size, not whatever
    the soft scheduler left behind."""
    engine = BatchEngine(compute_gaps=True, gap_ops_limit=11)
    (result,) = engine.run([JobSpec.make("hal", "2+/-,2*", "meta2")])
    assert result.num_ops == 11
    assert result.gap is not None


def test_stats_one_miss_per_unique_key_with_duplicates():
    job_a = JobSpec.make("hal", "2+/-,2*", "list")
    job_b = JobSpec.make("fir", "2+/-,2*", "list")
    engine = BatchEngine()
    engine.run([job_a, job_a, job_a, job_b])
    stats = engine.cache.stats()
    # Two unique keys -> exactly two misses; the two deduped duplicates
    # of job_a count as hits; two fresh results stored.
    assert stats["misses"] == 2
    assert stats["hits"] == 2
    assert stats["stored"] == 2


def test_stats_duplicates_of_cached_key_count_as_hits():
    job = JobSpec.make("hal", "2+/-,2*", "list")
    engine = BatchEngine()
    engine.run([job])
    engine.run([job, job])
    stats = engine.cache.stats()
    assert stats["misses"] == 1  # only the cold lookup
    assert stats["hits"] == 2  # one real lookup + one dedup
    assert stats["stored"] == 1


# ----------------------------------------------------------------------
# Full-schedule artifacts.
# ----------------------------------------------------------------------


def _artifact_jobs():
    return registry_sweep(
        names=("HAL", "FIR"),
        algorithms=("list(ready)", "threaded(meta2)"),
    )


def test_artifacts_match_fresh_in_process_run():
    from repro.scheduling.base import (
        artifact_start_times,
        schedule_artifact,
    )

    engine = BatchEngine(capture_schedules=True)
    (result,) = engine.run([JobSpec.make("hal", "2+/-,2*", "meta2")])
    dfg = get_graph("HAL")
    direct = threaded_schedule(
        dfg, ResourceSet.parse("2+/-,2*"), meta="meta2"
    )
    assert result.artifact == schedule_artifact(
        direct, input_ops=dfg.nodes()
    )
    assert result.artifact["length"] == result.length
    assert len(artifact_start_times(result.artifact)) == result.num_ops
    # Every op is bound: the thread *is* the functional unit.
    assert all(
        entry["unit"] is not None
        for entry in result.artifact["ops"].values()
    )


def test_artifacts_round_trip_through_disk(tmp_path):
    cold = BatchEngine(cache_dir=tmp_path / "c", capture_schedules=True)
    fresh = cold.run(_artifact_jobs())
    warm = BatchEngine(cache_dir=tmp_path / "c", capture_schedules=True)
    reloaded = warm.run(_artifact_jobs())
    assert [r.cached for r in reloaded] == [True] * len(reloaded)
    assert [r.artifact for r in reloaded] == [r.artifact for r in fresh]


def test_artifacts_identical_across_parallel_workers():
    serial = BatchEngine(capture_schedules=True).run(_artifact_jobs())
    parallel = BatchEngine(workers=2, capture_schedules=True).run(
        _artifact_jobs()
    )
    assert [r.artifact for r in parallel] == [r.artifact for r in serial]


def test_artifact_less_hit_recomputed_when_artifacts_requested(tmp_path):
    jobs = registry_sweep(names=("HAL",), algorithms=("list(ready)",))
    BatchEngine(cache_dir=tmp_path / "c").run(jobs)  # no artifacts

    engine = BatchEngine(cache_dir=tmp_path / "c", capture_schedules=True)
    (result,) = engine.run(jobs)
    assert result.cached is False
    assert result.artifact is not None
    # The richer entry overwrote the plain one.
    follow_up = BatchEngine(
        cache_dir=tmp_path / "c", capture_schedules=True
    ).run(jobs)
    assert follow_up[0].cached is True
    assert follow_up[0].artifact == result.artifact


def test_artifact_off_by_default():
    (result,) = BatchEngine().run(
        [JobSpec.make("hal", "2+/-,2*", "list")]
    )
    assert result.artifact is None


# ----------------------------------------------------------------------
# Capacity-bounded store under a big sweep.
# ----------------------------------------------------------------------


class _BoundAssertingCache(ResultCache):
    """Fails the test the moment the store exceeds its bound."""

    def put(self, result):
        super().put(result)
        # Re-stamp with a distinct monotonic mtime so survivor
        # selection is exact even on coarse-mtime filesystems where
        # rapid puts would otherwise tie.
        stamp = float(self.stored)
        import os as os_mod

        os_mod.utime(self._path(result.key), (stamp, stamp))
        self._note(result.key, stamp)
        assert len(self) <= self.max_entries


def test_bounded_store_survives_500_job_sweep(tmp_path):
    cap = 100
    cache = _BoundAssertingCache(tmp_path / "c", max_entries=cap)
    jobs = random_dag_sweep(
        sizes=(8,), count=500, base_seed=0, algorithms=("list(ready)",)
    )
    assert len(jobs) == 500
    results = BatchEngine(cache=cache).run(jobs)
    assert len(results) == 500
    assert len(cache) == cap
    assert cache.evictions == 400
    on_disk = list((tmp_path / "c").rglob("*.json"))
    assert len(on_disk) == cap
    # The survivors are the most recent 100 jobs, still served as hits.
    tail = BatchEngine(cache=cache).run(jobs[-cap:])
    assert all(r.cached for r in tail)


def test_engine_rejects_cache_and_bound_together(tmp_path):
    with pytest.raises(ValueError):
        BatchEngine(cache=ResultCache(), max_cache_entries=5)


def test_artifact_mutation_does_not_corrupt_store(tmp_path):
    """Hits and duplicates carry independent artifact dicts: a consumer
    reworking one schedule (the feedback-guided use case) must not
    change what the store serves next."""
    job = JobSpec.make("hal", "2+/-,2*", "meta2")
    engine = BatchEngine(cache_dir=tmp_path / "c", capture_schedules=True)
    (fresh,) = engine.run([job])
    pristine_length = fresh.artifact["length"]
    fresh.artifact["length"] = 999

    first, second = engine.run([job, job])
    assert first.artifact["length"] == pristine_length
    assert second.artifact["length"] == pristine_length
    second.artifact["length"] = 777
    assert first.artifact["length"] == pristine_length
    (again,) = engine.run([job])
    assert again.artifact["length"] == pristine_length


def test_gaps_recomputed_on_gap_less_warm_cache(tmp_path):
    """--gaps against a store warmed without gaps must not silently
    serve gap=None: the entry recomputes and upgrades, like artifacts."""
    jobs = [JobSpec.make("hal", "2+/-,2*", "list")]
    BatchEngine(cache_dir=tmp_path / "c").run(jobs)

    engine = BatchEngine(cache_dir=tmp_path / "c", compute_gaps=True)
    (result,) = engine.run(jobs)
    assert result.cached is False
    assert result.gap is not None
    # The upgraded entry now serves gap-requesting engines from disk.
    again = BatchEngine(cache_dir=tmp_path / "c", compute_gaps=True)
    (warm,) = again.run(jobs)
    assert warm.cached is True
    assert warm.gap == result.gap


def test_artifact_warmed_store_does_not_leak_into_plain_run(tmp_path):
    """Output shape must not depend on who warmed the cache: a run
    without --artifacts gets artifact=None even from rich entries."""
    jobs = [JobSpec.make("hal", "2+/-,2*", "meta2")]
    BatchEngine(cache_dir=tmp_path / "c", capture_schedules=True).run(jobs)

    plain = BatchEngine(cache_dir=tmp_path / "c")
    (result,) = plain.run(jobs)
    assert result.cached is True
    assert result.artifact is None
    # The rich entry itself is untouched.
    rich = BatchEngine(cache_dir=tmp_path / "c", capture_schedules=True)
    (kept,) = rich.run(jobs)
    assert kept.cached is True and kept.artifact is not None


def test_alternating_gaps_and_artifacts_converge(tmp_path):
    """Upgrading one rich payload must not destroy the other: after a
    --gaps run and an --artifacts run (either order) the entry carries
    both and serves both engines as hits."""
    jobs = [JobSpec.make("hal", "2+/-,2*", "list")]
    BatchEngine(cache_dir=tmp_path / "c", capture_schedules=True).run(jobs)
    BatchEngine(cache_dir=tmp_path / "c", compute_gaps=True).run(jobs)

    with_gaps = BatchEngine(cache_dir=tmp_path / "c", compute_gaps=True)
    (gap_hit,) = with_gaps.run(jobs)
    assert gap_hit.cached is True and gap_hit.gap is not None

    with_artifacts = BatchEngine(
        cache_dir=tmp_path / "c", capture_schedules=True
    )
    (artifact_hit,) = with_artifacts.run(jobs)
    assert artifact_hit.cached is True
    assert artifact_hit.artifact is not None


def test_gap_warmed_store_does_not_leak_into_plain_run(tmp_path):
    jobs = [JobSpec.make("hal", "2+/-,2*", "list")]
    BatchEngine(cache_dir=tmp_path / "c", compute_gaps=True).run(jobs)

    (plain,) = BatchEngine(cache_dir=tmp_path / "c").run(jobs)
    assert plain.cached is True
    assert plain.gap is None  # same shape as a cold no-gaps run


def test_num_ops_and_insertions_with_graph_growing_runner(monkeypatch):
    """Pin the sampling-before-run behavior with a runner that actually
    grows the graph in place (as refinement-enabled runners will)."""
    from dataclasses import replace

    from repro.engine.algorithms import ALGORITHMS
    from repro.ir.ops import OpKind
    from repro.scheduling.list_scheduler import ListPriority, list_schedule

    def growing_runner(dfg, resources):
        grown = dfg.add_node("grown_spill", OpKind.ADD)
        assert grown is not None
        return list_schedule(dfg, resources, ListPriority.READY_ORDER)

    monkeypatch.setitem(
        ALGORITHMS,
        "list(ready)",
        replace(ALGORITHMS["list(ready)"], runner=growing_runner),
    )
    engine = BatchEngine(capture_schedules=True, compute_gaps=True)
    (result,) = engine.run([JobSpec.make("hal", "2+/-,2*", "list")])
    # num_ops and gap eligibility reflect the 11-op input, not the
    # 12-op graph the runner left behind...
    assert result.num_ops == 11
    assert result.gap is not None
    # ...while the artifact records both the schedule of all 12 ops
    # and which one was a soft-scheduling insertion.
    assert len(result.artifact["ops"]) == 12
    assert result.artifact["inserted"] == ["grown_spill"]


def test_gap_limit_shapes_warm_hits(tmp_path):
    """A gap computed under a looser gap_ops_limit must not leak into a
    stricter engine's output: same shape as that engine's cold run."""
    jobs = [JobSpec.make("hal", "2+/-,2*", "list")]
    BatchEngine(cache_dir=tmp_path / "c", compute_gaps=True).run(jobs)

    strict = BatchEngine(
        cache_dir=tmp_path / "c", compute_gaps=True, gap_ops_limit=5
    )
    (result,) = strict.run(jobs)
    assert result.cached is True  # HAL (11 ops) is not gap-eligible at 5
    assert result.gap is None


class TestSubmissionApi:
    """The serving-oriented submission path: persistent pool plus
    thread-safe concurrent batches."""

    def test_run_and_submit_agree(self):
        jobs = registry_sweep(
            names=("HAL", "FIR"), algorithms=("list(ready)",)
        )
        via_run = BatchEngine().run(jobs)
        via_submit = BatchEngine().submit(jobs)
        assert [r.length for r in via_run] == [
            r.length for r in via_submit
        ]

    def test_concurrent_submitters_share_one_cache(self):
        """Many threads hammering overlapping batches stay correct:
        every response matches the serial answer and the cache ends up
        with exactly one entry per unique key."""
        from concurrent.futures import ThreadPoolExecutor

        engine = BatchEngine()
        jobs = registry_sweep(
            names=("HAL", "AR", "FIR"),
            constraints=("2+/-,2*", "2+/-,1*"),
            algorithms=("list(ready)", "threaded(meta2)"),
        )
        serial = {
            (r.graph, r.algorithm, r.resources): r.length
            for r in BatchEngine().run(jobs)
        }

        def submit_slice(offset):
            rotated = jobs[offset:] + jobs[:offset]
            return engine.submit(rotated)

        with ThreadPoolExecutor(max_workers=6) as pool:
            batches = list(pool.map(submit_slice, range(6)))
        for batch in batches:
            for result in batch:
                cell = (result.graph, result.algorithm, result.resources)
                assert serial[cell] == result.length
        assert engine.cache.stats()["stored"] >= len(jobs)
        assert len(engine.cache) == len(jobs)

    def test_persistent_pool_reused_across_submits(self):
        with BatchEngine(workers=2) as engine:
            assert engine._pool is not None
            pool = engine._pool
            first = engine.submit(
                registry_sweep(names=("HAL",), algorithms=("list(ready)",))
            )
            second = engine.submit(
                registry_sweep(names=("FIR",), algorithms=("list(ready)",))
            )
            assert engine._pool is pool  # no per-batch pool churn
            assert first[0].length > 0 and second[0].length > 0
        assert engine._pool is None  # context exit tears it down

    def test_start_is_idempotent_and_serial_engine_poolless(self):
        serial = BatchEngine(workers=1).start()
        assert serial._pool is None
        serial.shutdown()

        parallel = BatchEngine(workers=2)
        parallel.start()
        pool = parallel._pool
        parallel.start()
        assert parallel._pool is pool
        parallel.shutdown()
        parallel.shutdown()  # double shutdown is a no-op

    def test_persistent_pool_matches_serial_lengths(self):
        jobs = registry_sweep(
            names=("HAL", "AR", "FIR", "EF"),
            algorithms=("threaded(meta2)",),
        )
        serial = BatchEngine().run(jobs)
        with BatchEngine(workers=2) as engine:
            pooled = engine.submit(jobs)
        assert [r.length for r in serial] == [r.length for r in pooled]


def test_fingerprint_memo_stays_bounded(monkeypatch):
    """A long-lived engine fed distinct inline graphs must not retain
    every payload in the fingerprint memo."""
    import repro.engine.batch as batch_mod
    from repro.engine.sweeps import random_dag_sweep

    monkeypatch.setattr(batch_mod, "FINGERPRINT_MEMO_LIMIT", 4)
    engine = BatchEngine()
    for seed in range(7):
        engine.run(
            random_dag_sweep(
                sizes=(6,), count=1, base_seed=seed,
                algorithms=("list(ready)",),
            )
        )
    assert len(engine._fingerprints) <= 4
