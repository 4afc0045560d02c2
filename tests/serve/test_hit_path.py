"""Memory-tier hits on the event loop: the coalescer answers them
through ``BatchEngine.memory_hit`` without a batch window, and the
server reuses their encoded response bytes until the entry is written
again.  Everything the probe cannot settle at once takes the buffered
path."""

import asyncio
import json
import sys
import threading
import time

import pytest

from repro.engine.batch import BatchEngine
from repro.engine.job import JobSpec, anytime_meta
from repro.improve import Improver, improve_once
from repro.serve.coalescer import RequestCoalescer
from repro.serve.protocol import encode_json
from repro.serve.server import ScheduleServer

SHAPES = [(False, False), (True, False), (False, True), (True, True)]


def _body(graph, algorithm, artifacts=False, gaps=False) -> bytes:
    return json.dumps({
        "graph": graph,
        "resources": "2+/-,2*",
        "algorithm": algorithm,
        "artifacts": artifacts,
        "gaps": gaps,
    }).encode("utf-8")


def _wire(answer) -> bytes:
    """The body bytes a handler answer puts on the wire."""
    _, body, _ = answer
    return body if isinstance(body, bytes) else encode_json(body)


def _serve(scenario, **kwargs):
    """Run ``scenario(server)`` against an in-process server (no
    listener: requests go straight to ``dispatch``)."""
    kwargs.setdefault("batch_window_ms", 20.0)

    async def run():
        server = ScheduleServer(port=0, **kwargs)
        try:
            return await scenario(server)
        finally:
            await server.coalescer.drain()
            server.coalescer.close()
            server.engine.shutdown()

    return asyncio.run(run())


async def _post(server, body: bytes):
    return await server.dispatch("POST", "/schedule", {}, body)


class TestResponseBytes:
    @pytest.mark.parametrize(
        "artifacts,gaps", SHAPES,
        ids=["bare", "artifacts", "gaps", "rich"],
    )
    def test_computed_coalesced_and_fast_hits_are_byte_identical(
        self, artifacts, gaps
    ):
        body = _body("HAL", "meta2", artifacts, gaps)

        async def scenario(server):
            wave = await asyncio.gather(
                *(_post(server, body) for _ in range(3))
            )
            batches = server.metrics.batches
            # Every other shape of the same key lands in the response
            # memo beside this one before this shape is asked again.
            for shape in SHAPES:
                await _post(server, _body("HAL", "meta2", *shape))
            tail = [await _post(server, body) for _ in range(2)]
            return wave + tail, server.metrics.batches - batches

        answers, batches = _serve(scenario)
        sources = [headers["X-Repro-Source"] for _, _, headers in answers]
        assert sources == [
            "computed", "coalesced", "coalesced", "cache", "cache"
        ]
        assert batches == 0
        assert len({_wire(answer) for answer in answers}) == 1
        data = json.loads(_wire(answers[0]))
        assert ("artifact" in data) is artifacts
        assert ("gap" in data) is gaps


class TestFastHitAccounting:
    def test_a_fast_hit_moves_hits_not_batches(self, serve_factory):
        _, _, client = serve_factory(batch_window_ms=50.0)
        first = client.schedule_raw("FIR", algorithm="list")
        assert first.source == "computed"
        before = client.metrics()
        raw = client.schedule_raw("FIR", algorithm="list")
        after = client.metrics()
        assert raw.status == 200
        assert raw.source == "cache"
        assert raw.body == first.body
        assert after["cache_hits"] == before["cache_hits"] + 1
        assert (after["engine_cache"]["hits"]
                == before["engine_cache"]["hits"] + 1)
        assert after["engine_cache"]["misses"] == (
            before["engine_cache"]["misses"])
        assert after["batches"] == before["batches"]
        assert after["computed"] == before["computed"]
        assert after["queue_depth"] == 0


def _stale_fir():
    """An unproved FIR anytime incumbent, cut short by its node budget."""
    engine = BatchEngine(compute_gaps=True, capture_schedules=True)
    partial = Improver(engine, "FIR", "2+/-,2*", slice_nodes=200)
    partial.run(nodes=1_000)
    stale = engine.cache.lookup(partial.key)
    assert not anytime_meta(stale)["proved"]
    return stale


def _proved_fir():
    engine = BatchEngine(compute_gaps=True, capture_schedules=True)
    improve_once(engine, "FIR", "2+/-,2*")
    spec = JobSpec.make("FIR", "2+/-,2*", "bnb-anytime")
    return engine.cache.lookup(engine._keys.key(spec))


class TestRewritesReachTheNextHit:
    @pytest.mark.parametrize("store", ["rewrite_result", "install_result"])
    def test_a_better_anytime_entry_replaces_the_memoized_body(
        self, store
    ):
        stale = _stale_fir()
        proved = _proved_fir()
        body = _body("FIR", "bnb-anytime", artifacts=True)

        async def scenario(server):
            server.engine.install_result(stale)
            # The first ask memoizes the graph's fingerprint (buffered
            # hit); the next two are fast hits, the second from memo.
            answers = [await _post(server, body) for _ in range(3)]
            batches = server.metrics.batches
            if store == "rewrite_result":
                assert server.engine.rewrite_result(proved)
            else:
                assert server.engine.install_result(proved)
            answers.append(await _post(server, body))
            return answers, server.metrics.batches - batches

        answers, batches = _serve(scenario)
        assert batches == 0
        assert all(
            headers["X-Repro-Source"] == "cache"
            for _, _, headers in answers
        )
        assert answers[2][1] is answers[1][1]  # served from the memo
        old, new = {_wire(a) for a in answers[:3]}, _wire(answers[3])
        assert len(old) == 1 and new not in old
        data = json.loads(new)
        assert data["length"] == proved.length == 11
        assert data["artifact"]["meta"]["bnb"]["proved"] is True


def _rich_engine(**kwargs) -> BatchEngine:
    return BatchEngine(compute_gaps=True, capture_schedules=True, **kwargs)


SPEC = JobSpec.make("HAL", "2+/-,2*", "list")


def _buffered(engine: BatchEngine, spec: JobSpec = SPEC):
    """``spec`` through a coalescer; the batches it flushed and the
    answer.  A fall-through probe moves no engine stats itself."""
    stats = engine.cache.stats()
    assert engine.memory_hit(spec) is None
    assert engine.cache.stats() == stats

    async def scenario():
        coalescer = RequestCoalescer(engine, batch_window_ms=1.0)
        try:
            result, _ = await coalescer.schedule(spec)
        finally:
            await coalescer.drain()
            coalescer.close()
        return coalescer.metrics.batches, result

    return asyncio.run(scenario())


class TestFallThrough:
    def test_a_warm_memory_entry_is_answered_on_the_loop(self):
        engine = _rich_engine()
        engine.submit([SPEC])

        async def scenario():
            coalescer = RequestCoalescer(engine, batch_window_ms=1.0)
            result, coalesced = await coalescer.schedule(SPEC)
            coalescer.close()
            return coalescer.metrics, result, coalesced

        metrics, result, coalesced = asyncio.run(scenario())
        assert result.cached and not coalesced
        assert metrics.batches == 0 and metrics.cache_hits == 1

    def test_a_disk_only_entry_is_buffered(self, tmp_path):
        _rich_engine(cache_dir=tmp_path).submit([SPEC])
        engine = _rich_engine(cache_dir=tmp_path)
        engine._graph_hash(SPEC.graph)  # the fingerprint is memoized
        key = engine._keys.key(SPEC)
        batches, result = _buffered(engine)
        assert batches == 1
        assert result.cached and result.key == key
        # The probe left the disk alone; the buffered hit loaded it.
        assert engine.cache.lookup(key, memory_only=True) is not None

    def test_a_leaner_entry_without_an_artifact_is_buffered(self):
        lean = BatchEngine().submit([SPEC])[0]
        assert lean.artifact is None
        engine = _rich_engine()
        engine._graph_hash(SPEC.graph)
        engine.install_result(lean)
        batches, result = _buffered(engine)
        assert batches == 1
        assert not result.cached and result.artifact is not None

    def test_an_unmemoized_fingerprint_is_buffered_unhashed(self):
        held = _rich_engine()
        held.submit([SPEC])
        engine = _rich_engine()
        engine.install_result(held.cache.lookup(held._keys.key(SPEC)))
        assert engine.memory_hit(SPEC) is None
        assert engine._fingerprints == {}  # no graph was built or hashed
        batches, result = _buffered(engine)
        assert batches == 1 and result.cached

    def test_a_held_engine_lock_is_buffered_without_blocking(self):
        engine = _rich_engine()
        engine.submit([SPEC])
        buffered = threading.Event()
        outcome = {}

        async def scenario():
            coalescer = RequestCoalescer(engine, batch_window_ms=1.0)
            task = asyncio.ensure_future(coalescer.schedule(SPEC))
            await asyncio.sleep(0.05)  # the loop keeps turning
            outcome["pending"] = not task.done()
            outcome["queued"] = coalescer.metrics.queue_depth
            buffered.set()
            outcome["result"] = await task
            await coalescer.drain()
            coalescer.close()
            outcome["batches"] = coalescer.metrics.batches

        engine._lock.acquire()
        runner = threading.Thread(target=asyncio.run, args=(scenario(),))
        runner.start()
        try:
            assert buffered.wait(10), "the probe blocked the event loop"
        finally:
            engine._lock.release()
        runner.join(10)
        assert not runner.is_alive()
        assert outcome["pending"] and outcome["queued"] == 1
        result, coalesced = outcome["result"]
        assert result.cached and not coalesced
        assert outcome["batches"] == 1


class TestConcurrentHits:
    def test_probes_and_submits_lose_no_hit(self):
        """Loop-side probes race submitting threads on one engine; the
        submission lock must keep every hit counted exactly once."""
        engine = _rich_engine()
        specs = [JobSpec.make(name, "2+/-,2*", "list")
                 for name in ("HAL", "FIR", "AR")]
        engine.submit(specs)
        stats = engine.cache.stats()
        served = []
        deadline = time.monotonic() + 0.5

        def hammer(index):
            count = 0
            while time.monotonic() < deadline:
                spec = specs[count % len(specs)]
                if index % 2:
                    results = engine.submit([spec])
                else:
                    results = [engine.memory_hit(spec)]
                count += sum(1 for r in results if r is not None)
            served.append(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        after = engine.cache.stats()
        assert after["misses"] == stats["misses"]
        assert after["hits"] - stats["hits"] == sum(served) > 0
