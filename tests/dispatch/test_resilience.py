"""Dispatcher resilience: deadline budgets, retry caps, per-replica
circuit breakers, and mid-stream upstream death surfacing as a
terminal structured SSE error.

Live tests reuse the module replica set from ``test_router``'s
pattern; the stream-relay and breaker state-machine tests run against
an unstarted router (no sockets involved).
"""

import asyncio
import http.client
import json
import threading
from urllib.parse import quote

import pytest

from repro.dispatch.router import DispatchRouter, _stream_terminal
from repro.dispatch.testing import ReplicaSet
from repro.engine.job import JobSpec
from repro.graphs.random_dags import random_layered_dag
from repro.ir.serialize import dfg_to_dict
from repro.resilience import DEADLINE_HEADER, RetryPolicy
from repro.serve.client import ServeClient

DEAD = "127.0.0.1:9"  # discard port: connection refused immediately


@pytest.fixture(scope="module")
def replicas():
    with ReplicaSet(count=2, batch_window_ms=2.0) as replica_set:
        yield replica_set


@pytest.fixture()
def router_factory():
    started = []

    def factory(addresses, **kwargs) -> tuple:
        kwargs.setdefault("health_interval_s", 30.0)
        router = DispatchRouter(list(addresses), port=0, **kwargs)
        loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(router.start())
            ready.set()
            loop.run_forever()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10), "router failed to start"
        started.append((router, loop, thread))
        return router, loop, ServeClient(port=router.port, timeout=60)

    yield factory

    for router, loop, thread in started:
        try:
            asyncio.run_coroutine_threadsafe(router.stop(), loop).result(
                20
            )
        except Exception:
            pass
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


def fresh_graph(seed: int):
    return dfg_to_dict(random_layered_dag(8, seed=7_000 + seed))


def post_with_headers(port, body, headers):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST",
            "/schedule",
            body=body,
            headers={
                "Connection": "close",
                "Content-Type": "application/json",
                **headers,
            },
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


async def drive_relay(router, chunks):
    out = []
    async for piece in router._relay_stream(chunks):
        out.append(piece)
    return out


def relay(router, chunks):
    return asyncio.run(drive_relay(router, chunks))


TERMINAL = b'event: optimal\ndata: {"length":8}\n\n'
PROGRESS = b'event: incumbent\ndata: {"length":9}\n\n'


class TestStreamRelay:
    """Unit tests against fake upstream chunk generators."""

    def make_router(self):
        return DispatchRouter([DEAD])

    def test_terminal_stream_passes_through_untouched(self):
        router = self.make_router()

        async def upstream():
            yield PROGRESS
            yield TERMINAL

        assert relay(router, upstream()) == [PROGRESS, TERMINAL]
        assert router.metrics.stream_broken == 0

    def test_error_terminal_also_counts_as_clean(self):
        router = self.make_router()

        async def upstream():
            yield b'event: error\ndata: {"error":"bad graph"}\n\n'

        out = relay(router, upstream())
        assert len(out) == 1
        assert router.metrics.stream_broken == 0

    def test_upstream_eof_without_terminal_appends_error_frame(self):
        router = self.make_router()

        async def upstream():
            yield PROGRESS
            # ... and the replica dies: EOF with no terminal frame.

        out = relay(router, upstream())
        assert out[0] == PROGRESS
        assert len(out) == 2
        assert router.metrics.stream_broken == 1
        event, data = out[1].decode("utf-8").strip().split("\n")
        assert event == "event: error"
        payload = json.loads(data[len("data: "):])
        assert payload["type"] == "error"
        assert "disconnected mid-stream" in payload["error"]

    def test_upstream_transport_error_appends_error_frame(self):
        router = self.make_router()

        async def upstream():
            yield PROGRESS
            yield TERMINAL[: len(TERMINAL) // 2]  # torn frame...
            raise OSError("connection reset by peer")

        out = relay(router, upstream())
        assert router.metrics.stream_broken == 1
        assert out[-1].startswith(b"event: error\n")

    def test_str_chunks_are_encoded(self):
        router = self.make_router()

        async def upstream():
            yield TERMINAL.decode("utf-8")

        assert relay(router, upstream()) == [TERMINAL]

    def test_upstream_generator_is_always_closed(self):
        router = self.make_router()
        closed = []

        async def upstream():
            try:
                yield PROGRESS
                yield TERMINAL
            finally:
                closed.append(True)

        relay(router, upstream())
        assert closed == [True]

    @pytest.mark.parametrize(
        "tail,terminal",
        [
            (TERMINAL, True),
            (b"...prefix ignored..." + TERMINAL, True),
            (b"event: exhausted\ndata: {}\n\n", True),
            (PROGRESS, False),
            (TERMINAL[:-1], False),  # missing the closing newline
            (b"", False),
            (b"data: {}\n\n", False),  # no event name at all
        ],
    )
    def test_stream_terminal_classifier(self, tail, terminal):
        assert _stream_terminal(tail) is terminal


class TestDeadlines:
    def test_flag_deadline_exhausts_as_504(
        self, replicas, router_factory
    ):
        # A budget far below the replica's batch window: the walk
        # cannot finish inside it.
        router, _, client = router_factory(
            replicas.addresses(), deadline_ms=0.01
        )
        response = client.request(
            "POST",
            "/schedule",
            json.dumps(
                {"graph": fresh_graph(1), "algorithm": "list"}
            ).encode(),
        )
        assert response.status == 504
        assert "deadline" in response.json()["error"]
        assert router.metrics.deadline_exhausted >= 1
        assert router.metrics.failed >= 1

    def test_header_deadline_wins_over_no_flag(
        self, replicas, router_factory
    ):
        router, _, client = router_factory(replicas.addresses())
        status, body = post_with_headers(
            router.port,
            json.dumps(
                {"graph": fresh_graph(2), "algorithm": "list"}
            ).encode(),
            {DEADLINE_HEADER: "0"},
        )
        assert status == 504
        assert b"deadline" in body
        # Without the header the same router serves normally.
        ok = client.request(
            "POST",
            "/schedule",
            json.dumps(
                {"graph": fresh_graph(2), "algorithm": "list"}
            ).encode(),
        )
        assert ok.status == 200

    def test_malformed_header_never_rejects_the_request(
        self, replicas, router_factory
    ):
        router, _, _ = router_factory(replicas.addresses())
        status, _ = post_with_headers(
            router.port,
            json.dumps(
                {"graph": fresh_graph(3), "algorithm": "list"}
            ).encode(),
            {DEADLINE_HEADER: "garbage"},
        )
        assert status == 200


class TestRetryBudget:
    def test_exhausted_budget_reports_502(self, router_factory):
        router, _, client = router_factory(
            [DEAD, "127.0.0.1:19"],
            retry=RetryPolicy(max_attempts=1, base_s=0.001),
        )
        response = client.request(
            "POST",
            "/schedule",
            json.dumps(
                {"graph": fresh_graph(4), "algorithm": "list"}
            ).encode(),
        )
        assert response.status == 502
        assert "retry budget exhausted" in response.json()["error"]
        # One attempt allowed: the second candidate was never dialed.
        assert router.metrics.retried == 0

    def test_default_budget_walks_the_whole_ring(
        self, replicas, router_factory
    ):
        # max_attempts=0 preserves full-failover semantics: with a
        # dead replica in the ring, requests still answer 200.
        router, _, client = router_factory(
            [DEAD] + replicas.addresses(),
            retry=RetryPolicy(max_attempts=0, base_s=0.001),
        )
        for seed in range(6):
            response = client.request(
                "POST",
                "/schedule",
                json.dumps(
                    {"graph": fresh_graph(10 + seed), "algorithm": "list"}
                ).encode(),
            )
            assert response.status == 200


class TestBreakers:
    def test_probe_failures_open_and_recovery_closes(self):
        router = DispatchRouter(
            [DEAD], breaker_threshold=3, breaker_reset_s=60.0
        )
        for _ in range(3):
            router._apply_probe(DEAD, False)
        breaker = router._breakers[DEAD]
        assert breaker.state == "open"
        assert router.metrics.breaker_opened == 1
        assert router.metrics.breaker_closed == 0
        assert DEAD in router._down
        # Recovery: a healthy probe closes the breaker and readmits
        # through the same path.
        router._apply_probe(DEAD, True)
        assert breaker.state == "closed"
        assert router.metrics.breaker_closed == 1
        assert DEAD not in router._down

    def test_open_breaker_filters_candidates_with_fallback(self):
        other = "127.0.0.1:19"
        router = DispatchRouter(
            [DEAD, other], breaker_threshold=1, breaker_reset_s=60.0
        )
        router._apply_probe(DEAD, False)
        key = "a" * 64
        assert router._candidates(key) == [other]
        # With every replica gated, the unfiltered walk is the
        # fallback: trying everything beats refusing outright.
        router._apply_probe(other, False)
        assert set(router._candidates(key)) == {DEAD, other}

    def test_transport_failures_open_breaker_live(
        self, replicas, router_factory
    ):
        router, _, client = router_factory(
            [DEAD] + replicas.addresses(),
            breaker_threshold=1,
            breaker_reset_s=60.0,
        )
        # Unique jobs until one's ring preference leads with the dead
        # replica; its transport failure opens the breaker.
        for seed in range(32):
            response = client.request(
                "POST",
                "/schedule",
                json.dumps(
                    {"graph": fresh_graph(100 + seed), "algorithm": "list"}
                ).encode(),
            )
            assert response.status == 200
            if router.metrics.breaker_opened >= 1:
                break
        assert router.metrics.breaker_opened >= 1
        assert router._breakers[DEAD].state == "open"

    def test_cluster_metrics_exposes_breaker_snapshots(
        self, replicas, router_factory
    ):
        router, loop, client = router_factory(replicas.addresses())
        ring = client.metrics()["router"]["ring"]
        assert set(ring["breakers"]) == set(replicas.addresses())
        for snapshot in ring["breakers"].values():
            assert snapshot["state"] in ("closed", "open", "half-open")
            assert set(snapshot) == {
                "state",
                "failures",
                "opened",
                "closed",
            }


def get_stream(port, query, headers=None):
    """``GET /schedule/stream?<query>`` -> (status, lowercase headers,
    body read to the end)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(
            "GET", f"/schedule/stream?{query}", headers=headers or {}
        )
        response = conn.getresponse()
        got = {name.lower(): value for name, value in response.getheaders()}
        return response.status, got, response.read()
    finally:
        conn.close()


class TestStreamWalk:
    """``/schedule/stream`` walks the ring like ``/schedule`` does:
    failover, retry budget and deadline budget."""

    def test_stream_fails_over_past_a_dead_owner(
        self, replicas, router_factory
    ):
        router, _, _ = router_factory(
            [DEAD] + replicas.addresses(),
            retry=RetryPolicy(max_attempts=0, base_s=0.001),
        )
        # A registry graph whose canonical improver key the dead
        # replica owns, so the stream's first attempt must fail.
        owned = [
            (graph, resources)
            for graph in ("FIG1", "HAL", "IIR3", "AR", "FIR", "EF")
            for resources in ("2+/-,2*", "1+/-,1*", "2+/-,1*", "1+/-,2*")
            if router.ring.preference(
                router._keys.key(
                    JobSpec.make(graph, resources, "bnb-anytime")
                )
            )[0]
            == DEAD
        ]
        assert owned, "no registry graph is owned by the dead replica"
        graph, resources = owned[0]
        status, headers, body = get_stream(
            router.port,
            f"graph={graph}&resources={quote(resources)}&nodes=2000",
        )
        assert status == 200
        assert headers["x-repro-attempts"] == "2"
        assert headers["x-repro-replica"] in replicas.addresses()
        assert _stream_terminal(body), body[-200:]
        assert router.metrics.retried == 1
        assert router.metrics.failed_over == 1
        assert router.metrics.stream_broken == 0

    def test_exhausted_budget_reports_502(self, router_factory):
        router, _, _ = router_factory(
            [DEAD, "127.0.0.1:19"],
            retry=RetryPolicy(max_attempts=1, base_s=0.001),
        )
        status, _, body = get_stream(router.port, "graph=HAL")
        assert status == 502
        error = json.loads(body)["error"]
        assert "all replicas failed for this stream" in error
        assert "retry budget exhausted" in error
        assert router.metrics.retried == 0

    def test_header_deadline_exhausts_as_504(
        self, replicas, router_factory
    ):
        router, _, _ = router_factory(replicas.addresses())
        status, _, body = get_stream(
            router.port, "graph=HAL", {DEADLINE_HEADER: "0"}
        )
        assert status == 504
        assert "deadline" in json.loads(body)["error"]
        assert router.metrics.deadline_exhausted == 1
