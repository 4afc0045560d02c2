"""Coalescer unit tests against a stub engine: the result-count
guard, queue-depth accounting next to future resolution, and the
cancellation-never-leaks property."""

import asyncio
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.job import JobResult, JobSpec
from repro.errors import ConfigError, ReproError
from repro.serve.coalescer import RequestCoalescer

NAMES = ["HAL", "AR", "FIR", "EF", "DCT8"]


def _spec(index: int) -> JobSpec:
    name = NAMES[index % len(NAMES)]
    algorithm = "list" if index < len(NAMES) else "fds"
    return JobSpec.make(name, "2+/-,2*", algorithm)


def _result(spec: JobSpec, cached: bool = False) -> JobResult:
    return JobResult(
        key=f"{spec.graph.name}|{spec.algorithm}",
        graph=spec.graph.name,
        graph_hash="stub",
        num_ops=1,
        resources=spec.resources,
        algorithm=spec.algorithm,
        length=5,
        runtime_s=0.001,
        cached=cached,
    )


class StubEngine:
    """Engine stand-in with a controllable failure mode and latency.

    ``shortfall`` drops that many results from the returned list (the
    bug class the coalescer must guard against); ``gate`` blocks the
    submit until the test releases it; ``boom`` raises instead.
    """

    def __init__(self, shortfall=0, gate=None, boom=None, delay_s=0.0):
        self.shortfall = shortfall
        self.gate = gate
        self.boom = boom
        self.delay_s = delay_s
        self.batches = []

    def memory_hit(self, spec):
        """No memory tier: every job takes the buffered path."""
        return None

    def submit(self, specs):
        if self.gate is not None:
            assert self.gate.wait(10), "test never released the gate"
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.boom is not None:
            raise self.boom
        specs = list(specs)
        self.batches.append(specs)
        results = [_result(spec) for spec in specs]
        if self.shortfall:
            results = results[: -self.shortfall]
        return results


def _coalescer(engine, **kwargs) -> RequestCoalescer:
    kwargs.setdefault("batch_window_ms", 1.0)
    return RequestCoalescer(engine, **kwargs)


class TestBatchWindow:
    @pytest.mark.parametrize("window", [float("inf"), float("nan"), -1.0])
    def test_non_finite_or_negative_window_rejected(self, window):
        # An infinite window would never flush a lone request; NaN and
        # negative values used to be clamped to 0 silently.
        with pytest.raises(ConfigError, match="batch_window_ms"):
            RequestCoalescer(StubEngine(), batch_window_ms=window)

    def test_zero_window_flushes_a_lone_request(self):
        async def scenario():
            engine = StubEngine()
            coalescer = _coalescer(engine, batch_window_ms=0)
            try:
                result, _ = await asyncio.wait_for(
                    coalescer.schedule(_spec(0)), 5.0
                )
                assert result.graph == "HAL"
                assert len(engine.batches) == 1
            finally:
                coalescer.close()

        asyncio.run(scenario())


class TestResultCountGuard:
    def test_short_result_list_fails_all_futures_not_hangs(self):
        """A result list shorter than the batch must fail every
        affected client with a clear error — zip() would silently
        drop the tail and hang those clients forever."""

        async def scenario():
            coalescer = _coalescer(StubEngine(shortfall=1))
            try:
                outcomes = await asyncio.gather(
                    *(
                        coalescer.schedule(_spec(index))
                        for index in range(3)
                    ),
                    return_exceptions=True,
                )
                assert len(outcomes) == 3
                for outcome in outcomes:
                    assert isinstance(outcome, ReproError)
                    assert "3 jobs" in str(outcome)
                    assert "hanging" in str(outcome)
                assert coalescer.pending_jobs == 0
                assert coalescer.metrics.queue_depth == 0
                assert await coalescer.drain(5.0) is True
            finally:
                coalescer.close()

        asyncio.run(scenario())

    def test_surplus_result_list_also_fails(self):
        async def scenario():
            engine = StubEngine()
            original = engine.submit
            engine.submit = lambda specs: original(specs) * 2
            coalescer = _coalescer(engine)
            try:
                with pytest.raises(ReproError, match="results"):
                    await coalescer.schedule(_spec(0))
                assert coalescer.pending_jobs == 0
            finally:
                coalescer.close()

        asyncio.run(scenario())

    def test_engine_exception_fails_waiters_and_settles(self):
        async def scenario():
            coalescer = _coalescer(
                StubEngine(boom=RuntimeError("pool died"))
            )
            try:
                outcomes = await asyncio.gather(
                    coalescer.schedule(_spec(0)),
                    coalescer.schedule(_spec(1)),
                    return_exceptions=True,
                )
                assert all(
                    isinstance(outcome, RuntimeError)
                    for outcome in outcomes
                )
                assert coalescer.pending_jobs == 0
                assert coalescer.metrics.queue_depth == 0
                assert await coalescer.drain(5.0) is True
            finally:
                coalescer.close()

        asyncio.run(scenario())


class TestQueueDepthAccounting:
    def test_gauge_counts_work_until_futures_resolve(self):
        """``queue_depth`` must cover admitted work for as long as a
        client could still be waiting on it — not drop early the
        moment the engine call returns."""

        async def scenario():
            gate = threading.Event()
            coalescer = _coalescer(StubEngine(gate=gate))
            try:
                tasks = [
                    asyncio.ensure_future(
                        coalescer.schedule(_spec(index))
                    )
                    for index in range(2)
                ]
                # Wait until the batch is flushed and sitting inside
                # the (gated) engine call.
                deadline = asyncio.get_running_loop().time() + 5.0
                while not coalescer._batches:
                    assert (
                        asyncio.get_running_loop().time() < deadline
                    ), "batch never flushed"
                    await asyncio.sleep(0.005)
                assert coalescer.metrics.queue_depth == 2
                assert coalescer.pending_jobs == 2
                gate.set()
                results = await asyncio.gather(*tasks)
                assert len(results) == 2
                assert coalescer.metrics.queue_depth == 0
                assert coalescer.pending_jobs == 0
            finally:
                gate.set()
                coalescer.close()

        asyncio.run(scenario())

    def test_settle_twice_trips_the_negative_gauge_assert(self):
        async def scenario():
            coalescer = _coalescer(StubEngine())
            spec = _spec(0)
            await coalescer.schedule(spec)
            with pytest.raises(AssertionError, match="negative"):
                coalescer._settle(spec)
            coalescer.close()

        asyncio.run(scenario())


class TestFlushTaskCancellation:
    def test_cancelled_batch_task_still_settles_inflight(self):
        """Cancelling the *flush task itself* (event-loop teardown)
        must not leak _inflight entries — later duplicates would
        attach to a future nobody resolves."""

        async def scenario():
            gate = threading.Event()
            coalescer = _coalescer(StubEngine(gate=gate))
            try:
                waiter = asyncio.ensure_future(
                    coalescer.schedule(_spec(0))
                )
                deadline = asyncio.get_running_loop().time() + 5.0
                while not coalescer._batches:
                    assert (
                        asyncio.get_running_loop().time() < deadline
                    ), "batch never flushed"
                    await asyncio.sleep(0.005)
                (batch_task,) = coalescer._batches
                batch_task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await waiter
                assert coalescer.pending_jobs == 0
                assert coalescer._inflight == {}
                assert coalescer.metrics.queue_depth == 0
                gate.set()
                assert await coalescer.drain(5.0) is True
            finally:
                gate.set()
                coalescer.close()

        asyncio.run(scenario())


class TestCancellationProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        cancel_mask=st.lists(
            st.booleans(), min_size=1, max_size=6
        ),
        duplicate=st.booleans(),
    )
    def test_cancellation_mid_batch_never_leaks_inflight(
        self, cancel_mask, duplicate
    ):
        """Whatever subset of clients cancels mid-batch, the
        coalescer's in-flight table empties, the queue gauge returns
        to zero, surviving twins still get results, and drain()
        terminates."""

        async def scenario():
            coalescer = _coalescer(
                StubEngine(delay_s=0.02), batch_window_ms=1.0
            )
            try:
                tasks = []
                for index, _ in enumerate(cancel_mask):
                    tasks.append(
                        asyncio.ensure_future(
                            coalescer.schedule(_spec(index))
                        )
                    )
                    if duplicate:  # a coalesced twin per job
                        tasks.append(
                            asyncio.ensure_future(
                                coalescer.schedule(_spec(index))
                            )
                        )
                # Let the window elapse so the batch is mid-flight.
                await asyncio.sleep(0.005)
                victims = []
                for index, cancel in enumerate(cancel_mask):
                    if cancel:
                        stride = 2 if duplicate else 1
                        victim = tasks[index * stride]
                        victim.cancel()
                        victims.append(victim)
                outcomes = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
                for task, outcome in zip(tasks, outcomes):
                    if task in victims:
                        assert isinstance(
                            outcome, asyncio.CancelledError
                        )
                    else:
                        result, coalesced = outcome
                        assert result.length == 5
                assert await coalescer.drain(5.0) is True
                assert coalescer.pending_jobs == 0
                assert coalescer._inflight == {}
                assert coalescer.metrics.queue_depth == 0
            finally:
                coalescer.close()

        asyncio.run(scenario())
