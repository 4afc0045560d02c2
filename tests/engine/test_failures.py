"""Structured per-job failures: a SchedulingError never aborts a batch."""

from dataclasses import replace

from repro.engine.algorithms import ALGORITHMS
from repro.engine.batch import BatchEngine
from repro.engine.job import JobResult, JobSpec
from repro.errors import SchedulingError
from repro.graphs import hal
from repro.ir import DataFlowGraph, OpKind


def _mul_only_graph():
    g = DataFlowGraph(name="muls")
    g.add_node("m1", OpKind.MUL)
    g.add_node("m2", OpKind.MUL)
    g.add_edge("m1", "m2")
    return g


class TestStructuredFailures:
    def test_infeasible_job_fails_without_aborting_the_batch(self):
        """An op no unit can execute is that job's failure, not the
        batch's."""
        engine = BatchEngine()
        results = engine.run(
            [
                JobSpec.make("HAL", "2+/-,2*", "list"),
                # No multiplier: list scheduling raises InfeasibleError.
                JobSpec.make(_mul_only_graph(), "1+/-", "list"),
                JobSpec.make("FIR", "2+/-,2*", "list"),
            ]
        )
        ok_first, failed, ok_last = results
        assert ok_first.ok and ok_first.error is None
        assert ok_last.ok and ok_last.length > 0
        assert not failed.ok
        assert failed.length == -1
        assert "InfeasibleError" in failed.error
        assert failed.gap is None and failed.artifact is None

    def test_fds_infeasibility_maps_to_the_failing_job(self, monkeypatch):
        """A SchedulingError out of the FDS fixing sweep (infeasible
        latency mid-schedule) becomes a structured failure."""

        def exploding_fds(dfg, resources):
            raise SchedulingError(
                "infeasible frame for m1: [3, 2] within latency 5"
            )

        monkeypatch.setitem(
            ALGORITHMS,
            "force-directed",
            replace(ALGORITHMS["force-directed"], runner=exploding_fds),
        )
        engine = BatchEngine()
        results = engine.run(
            [
                JobSpec.make("HAL", "2+/-,2*", "fds"),
                JobSpec.make("HAL", "2+/-,2*", "list"),
            ]
        )
        assert "infeasible frame" in results[0].error
        assert results[0].algorithm == "force-directed"
        assert results[1].ok

    def test_failures_are_never_cached(self, tmp_path):
        engine = BatchEngine(cache_dir=tmp_path)
        spec = JobSpec.make(_mul_only_graph(), "1+/-", "list")
        first = engine.run([spec])[0]
        assert not first.ok and not first.cached
        # The store holds only successes; rerunning recomputes.
        assert engine.cache.stats()["stored"] == 0
        second = engine.run([spec])[0]
        assert not second.ok and not second.cached
        assert engine.cache.stats()["hits"] == 0

    def test_within_batch_duplicates_share_one_failure(self):
        engine = BatchEngine()
        spec = JobSpec.make(_mul_only_graph(), "1+/-", "list")
        results = engine.run([spec, spec])
        assert results[0].error == results[1].error
        assert not results[0].ok and not results[1].ok

    def test_gap_comparator_infeasibility_is_not_the_jobs_failure(
        self, monkeypatch
    ):
        """A SchedulingError inside the optional gap comparator must
        cost only the gap, never the (successful) job itself."""

        def exploding_comparator(dfg, resources):
            raise SchedulingError("comparator down")

        monkeypatch.setitem(
            ALGORITHMS,
            "bnb-anytime",
            replace(ALGORITHMS["bnb-anytime"], runner=exploding_comparator),
        )
        engine = BatchEngine(compute_gaps=True)
        result = engine.run([JobSpec.make("HAL", "2+/-,2*", "list")])[0]
        assert result.ok
        assert result.gap is None

    def test_an_unproved_comparator_gives_no_gap(self, monkeypatch):
        """Only a proved optimum is a gap baseline: a comparator that
        ran out of budget leaves the gap unknown, whatever its length."""
        real = ALGORITHMS["bnb-anytime"]

        def unproved_comparator(dfg, resources):
            schedule = real.runner(dfg, resources)
            schedule.meta["bnb"]["proved"] = False
            return schedule

        monkeypatch.setitem(
            ALGORITHMS,
            "bnb-anytime",
            replace(real, runner=unproved_comparator),
        )
        engine = BatchEngine(compute_gaps=True)
        result = engine.run([JobSpec.make("HAL", "2+/-,2*", "list")])[0]
        assert result.ok
        assert result.gap is None

    def test_error_round_trips_through_dicts(self):
        result = JobResult(
            key="k" * 64,
            graph="muls",
            graph_hash="h" * 64,
            num_ops=2,
            resources="1+/-",
            algorithm="list(ready)",
            length=-1,
            runtime_s=0.001,
            error="InfeasibleError: no functional unit can execute: MUL",
        )
        clone = JobResult.from_dict(result.to_dict())
        assert clone == result
        assert not clone.ok
        # The error is part of the deterministic public payload.
        assert result.public_dict()["error"] == result.error

    def test_parallel_pool_ships_failures_home(self):
        """Failures also come back across a worker pool, not just
        in-process."""
        engine = BatchEngine(workers=2)
        specs = [
            JobSpec.make(_mul_only_graph(), "1+/-", "list"),
            JobSpec.make("HAL", "2+/-,2*", "list"),
            JobSpec.make("FIR", "2+/-,2*", "meta2"),
        ]
        results = engine.run(specs)
        assert not results[0].ok and "InfeasibleError" in results[0].error
        assert results[1].ok and results[2].ok

    def test_ok_graph_unaffected(self):
        result = BatchEngine().run(
            [JobSpec.make(hal(), "2+/-,2*", "meta2")]
        )[0]
        assert result.ok and result.error is None and result.length == 8
