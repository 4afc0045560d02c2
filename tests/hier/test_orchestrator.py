"""Hierarchical scheduling end-to-end: partition, fan out, stitch.

Fast paths (local backend, in-process engine) run on the paper
benchmarks; one marked-slow test drives a real ``repro serve`` replica
through :class:`ServeBackend` to exercise the wire path the CI
``hier-smoke`` job scales up.
"""

import hashlib

import pytest

from repro.engine import BatchEngine
from repro.engine.batch import execute_job
from repro.engine.job import JobSpec
from repro.errors import SchedulingError
from repro.graphs import get_graph
from repro.graphs.random_dags import random_hier_dag
from repro.hier import (
    EngineBackend,
    HierOrchestrator,
    LocalBackend,
    ServeBackend,
    hier_schedule,
)
from repro.scheduling.base import validate_schedule


def _assert_monotone(gaps):
    assert all(b <= a for a, b in zip(gaps, gaps[1:])), gaps


class TestLocal:
    @pytest.mark.parametrize("name", ["EF", "DCT8"])
    def test_benchmark_end_to_end(self, name):
        dfg = get_graph(name)
        result = hier_schedule(dfg, "2+/-,2*", max_ops=12)
        assert result.rounds >= 2
        _assert_monotone(result.gaps)
        assert sorted(result.schedule.start_times) == sorted(dfg.nodes())
        meta = result.schedule.meta
        assert meta["hier_rounds"] == result.rounds
        assert meta["hier_partitions"] == result.num_partitions
        assert meta["hier_gaps"] == list(result.gaps)
        validate_schedule(result.schedule, check_binding=False)

    def test_list_algorithm_backend(self):
        dfg = get_graph("FFT8")
        result = hier_schedule(
            dfg, "2+/-,2*", algorithm="list(ready)", max_ops=16
        )
        _assert_monotone(result.gaps)
        assert result.schedule.algorithm == "hier(list(ready))"
        assert sorted(result.schedule.start_times) == sorted(dfg.nodes())

    def test_local_backend_reports_no_keys(self):
        result = hier_schedule(get_graph("EF"), "2+/-,2*", max_ops=12)
        assert result.keys == ()
        assert result.cached_jobs == 0

    def test_matches_seeded_random_graph(self):
        dfg = random_hier_dag(300, seed=9)
        a = hier_schedule(dfg, "4+/-,4*")
        b = hier_schedule(random_hier_dag(300, seed=9), "4+/-,4*")
        assert a.schedule.start_times == b.schedule.start_times
        assert a.gaps == b.gaps


class TestEngineBackend:
    def test_requires_capture_schedules(self):
        engine = BatchEngine(workers=1)
        with pytest.raises(SchedulingError):
            EngineBackend(engine)

    def test_second_run_is_fully_cached(self):
        dfg = random_hier_dag(200, seed=3)
        engine = BatchEngine(workers=2, capture_schedules=True).start()
        try:
            orch = HierOrchestrator(
                "2+/-,2*", backend=EngineBackend(engine)
            )
            first = orch.run(dfg)
            second = orch.run(dfg)
        finally:
            engine.shutdown()
        assert first.jobs > 0
        assert second.cached_jobs == second.jobs
        assert second.keys == first.keys
        assert second.schedule.start_times == first.schedule.start_times

    def test_keys_are_unique_per_subgraph(self):
        engine = BatchEngine(workers=1, capture_schedules=True).start()
        try:
            result = HierOrchestrator(
                "2+/-,2*", max_ops=12, backend=EngineBackend(engine)
            ).run(get_graph("EF"))
        finally:
            engine.shutdown()
        # Every round re-keys the re-pinned subgraphs, so the unique
        # keys span [num_partitions, jobs] and never repeat.
        assert result.num_partitions <= len(result.keys) <= result.jobs
        assert len(set(result.keys)) == len(result.keys)
        assert list(result.keys) == sorted(result.keys)


class TestCacheKeyCompat:
    """Window-free specs must keep the historical key bytes."""

    def test_windowless_key_is_the_historical_text(self):
        spec = JobSpec.make("HAL", "2+/-,2*", "force-directed")
        expected = hashlib.sha256(
            b"abc|2+/-,2*|force-directed"
        ).hexdigest()
        assert spec.cache_key("abc") == expected

    def test_windowed_key_differs(self):
        plain = JobSpec.make("HAL", "2+/-,2*", "force-directed")
        pinned = JobSpec.make(
            "HAL", "2+/-,2*", "force-directed", windows={"n1": (0, 4)}
        )
        assert pinned.cache_key("abc") != plain.cache_key("abc")

    def test_window_order_does_not_change_the_key(self):
        a = JobSpec.make(
            "HAL",
            "2+/-,2*",
            "force-directed",
            windows={"x": (1, 2), "y": (3, 4)},
        )
        b = JobSpec.make(
            "HAL",
            "2+/-,2*",
            "force-directed",
            windows={"y": (3, 4), "x": (1, 2)},
        )
        assert a.cache_key("abc") == b.cache_key("abc")


class TestFailureModes:
    def test_unknown_window_op_is_a_structured_job_failure(self):
        spec = JobSpec.make(
            "HAL", "2+/-,2*", "force-directed", windows={"ghost": (0, 1)}
        )
        result = execute_job(spec, "", "", capture_schedule=True)
        assert not result.ok
        assert "ghost" in result.error

    def test_windows_on_unsupported_algorithm_rejected_at_make(self):
        with pytest.raises(SchedulingError):
            JobSpec.make("HAL", "2+/-,2*", "meta2", windows={"a": (0, 1)})

    def test_unsupported_algorithm_rejected_by_orchestrator(self):
        with pytest.raises(SchedulingError):
            HierOrchestrator("2+/-,2*", algorithm="meta2")

    def test_dead_serve_target_is_a_structured_error(self):
        # Port 9 (discard) refuses connections; the backend must raise
        # SchedulingError, not leak ConnectionRefusedError to the CLI.
        backend = ServeBackend("127.0.0.1:9", timeout=5.0)
        with pytest.raises(SchedulingError, match="unreachable"):
            HierOrchestrator("2+/-,2*", backend=backend).run(
                get_graph("EF")
            )

    @pytest.mark.parametrize(
        "target", ["127.0.0.1:70000", "127.0.0.1:0", "host:", "x"]
    )
    def test_bad_serve_target_exits_2_before_any_attempt(
        self, target, capsys
    ):
        from repro.__main__ import main

        # Refused while parsing, so no request is sent and retried.
        assert main(["hier", "EF", "--target", target]) == 2
        err = capsys.readouterr().err
        assert f"error: malformed address {target!r}" in err
        assert "unreachable" not in err

    def test_bad_rounds_and_slack_rejected(self):
        with pytest.raises(SchedulingError):
            HierOrchestrator("2+/-,2*", max_rounds=0)
        with pytest.raises(SchedulingError):
            HierOrchestrator("2+/-,2*", slack=-1)


class TestServeBackend:
    def test_against_a_live_replica(self):
        from repro.dispatch.testing import ReplicaSet

        dfg = random_hier_dag(200, seed=7)
        with ReplicaSet(count=1, batch_window_ms=1.0) as replicas:
            backend = ServeBackend(
                replicas.members[0].address, workers=4
            )
            result = HierOrchestrator(
                "4+/-,4*", backend=backend
            ).run(dfg)
        _assert_monotone(result.gaps)
        assert result.jobs > 0
        assert result.keys, "serve jobs must report cache keys"
        assert sorted(result.schedule.start_times) == sorted(dfg.nodes())
