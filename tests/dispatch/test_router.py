"""Live dispatcher tests: routing, coalescing, failover, aggregation.

The replica set boots real ``repro serve`` subprocesses once per
module; routers are cheap and run in-process on a background event
loop, one per test.  Counter assertions are delta-based where state is
shared across tests.
"""

import asyncio
import json
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.dispatch.router import DispatchRouter
from repro.dispatch.testing import ReplicaSet
from repro.errors import ReproError
from repro.graphs.random_dags import random_layered_dag
from repro.ir.serialize import dfg_to_dict
from repro.serve.client import ServeClient


@pytest.fixture(scope="module")
def replicas():
    with ReplicaSet(count=2, batch_window_ms=2.0) as replica_set:
        yield replica_set


@pytest.fixture()
def router_factory():
    """In-process routers on background event loops; torn down after."""
    started = []

    def factory(addresses, **kwargs) -> tuple:
        kwargs.setdefault("health_interval_s", 0.2)
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


def _inline_jobs(tag: int, count: int):
    """Unique inline-graph request bodies (fresh work per test)."""
    return [
        dfg_to_dict(random_layered_dag(8, seed=tag * 1000 + index))
        for index in range(count)
    ]


class TestRouting:
    def test_routed_bytes_equal_direct_replica_bytes(
        self, replicas, router_factory
    ):
        """The determinism contract across the network hop: the same
        request body answers byte-identically from either replica
        directly and through the dispatcher."""
        _, _, client = router_factory(replicas.addresses())
        routed = client.schedule_raw("HAL", algorithm="meta2")
        assert routed.status == 200
        for index in range(len(replicas.members)):
            direct = replicas.client(index).schedule_raw(
                "HAL", algorithm="meta2"
            )
            assert direct.body == routed.body
        assert "x-repro-replica" in routed.headers
        assert routed.headers["x-repro-attempts"] == "1"

    def test_burst_computes_once_per_unique_key_cluster_wide(
        self, replicas, router_factory
    ):
        _, _, client = router_factory(replicas.addresses())
        before = client.metrics()["cluster"]["computed"]
        graphs = _inline_jobs(tag=1, count=3)
        bodies = [
            json.dumps({"graph": graph, "algorithm": "list"}).encode()
            for graph in graphs
        ] * 6

        with ThreadPoolExecutor(max_workers=12) as pool:
            responses = list(
                pool.map(
                    lambda b: client.request("POST", "/schedule", b),
                    bodies,
                )
            )
        assert all(r.status == 200 for r in responses)
        by_body = {}
        for blob, response in zip(bodies, responses):
            by_body.setdefault(blob, set()).add(response.body)
        assert all(len(variants) == 1 for variants in by_body.values())

        metrics = client.metrics()
        assert metrics["cluster"]["computed"] - before == len(graphs)
        router = metrics["router"]
        assert router["coalesced"] > 0
        assert router["failed"] == 0

    def test_same_key_sticks_to_one_replica(
        self, replicas, router_factory
    ):
        _, _, client = router_factory(replicas.addresses())
        owners = {
            client.schedule_raw("FIR", algorithm="meta2").headers[
                "x-repro-replica"
            ]
            for _ in range(6)
        }
        assert len(owners) == 1, owners

    def test_keys_spread_across_replicas(self, replicas, router_factory):
        """With enough distinct jobs, both replicas get work."""
        _, _, client = router_factory(replicas.addresses())
        owners = set()
        for graph in _inline_jobs(tag=2, count=24):
            raw = client.schedule_raw(graph, algorithm="list")
            assert raw.status == 200
            owners.add(raw.headers["x-repro-replica"])
        assert owners == set(replicas.addresses())


class TestEdgeValidation:
    def test_bad_request_bounces_at_router_without_network_hop(
        self, replicas, router_factory
    ):
        _, _, client = router_factory(replicas.addresses())
        before = [
            replicas.client(i).metrics()["schedule_requests"]
            for i in range(len(replicas.members))
        ]
        raw = client.request("POST", "/schedule", b"{nope")
        assert raw.status == 400
        assert "JSON" in raw.json()["error"]
        unknown = client.schedule_raw("NOSUCH")
        assert unknown.status == 400
        after = [
            replicas.client(i).metrics()["schedule_requests"]
            for i in range(len(replicas.members))
        ]
        assert after == before

    def test_unknown_endpoint_and_wrong_methods(
        self, replicas, router_factory
    ):
        _, _, client = router_factory(replicas.addresses())
        assert client.request("GET", "/nope").status == 404
        assert client.request("GET", "/schedule").status == 405
        assert client.request("POST", "/healthz").status == 405
        assert client.request("POST", "/metrics").status == 405

    def test_unknown_endpoint_body_matches_a_replica(
        self, replicas, router_factory
    ):
        _, _, client = router_factory(replicas.addresses())
        routed = client.request("GET", "/nope")
        direct = replicas.client(0).request("GET", "/nope")
        assert routed.status == direct.status == 404
        assert routed.body == direct.body
        assert routed.json()["error"] == (
            "no such endpoint '/nope'; try POST /schedule, "
            "GET /schedule/stream, GET /healthz, GET /metrics"
        )


class TestStreamRelay:
    def test_stream_relays_verbatim_through_router(
        self, replicas, router_factory
    ):
        """The SSE bytes arrive unmodified: monotone incumbents ending
        in the proved-optimal terminal event, exactly as a replica
        would serve them directly."""
        router, _, client = router_factory(replicas.addresses())
        events = list(client.schedule_stream("IIR3", timeout=120))
        assert events, "stream relayed no events"
        lengths = [
            e["length"] for e in events if e["type"] == "incumbent"
        ]
        assert lengths == sorted(lengths, reverse=True)
        assert events[-1]["type"] == "optimal"
        assert events[-1]["length"] == 20
        # Exactly one replica ran the improver: the ring routed the
        # stream to the canonical key's owner.
        jobs = [
            replicas.client(i).metrics()["improve_jobs"]
            for i in range(len(replicas.members))
        ]
        assert sum(jobs) >= 1 and min(jobs) == 0

    def test_stream_carries_routing_headers(
        self, replicas, router_factory
    ):
        import http.client

        _, _, client = router_factory(replicas.addresses())
        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=60
        )
        try:
            conn.request("GET", "/schedule/stream?graph=FIG1")
            response = conn.getresponse()
            assert response.status == 200
            headers = {
                name.lower(): value
                for name, value in response.getheaders()
            }
            assert headers["x-repro-replica"] in replicas.addresses()
            assert len(headers["x-repro-key"]) == 64
            assert "content-length" not in headers
            assert "event: optimal" in response.read().decode()
        finally:
            conn.close()

    def test_stream_errors_bounce_and_relay(
        self, replicas, router_factory
    ):
        _, _, client = router_factory(replicas.addresses())
        # Unknown graph: refused at the edge, no replica sees it.
        raw = client.request("GET", "/schedule/stream?graph=NOSUCH")
        assert raw.status == 400
        assert "unknown benchmark" in raw.json()["error"]
        # Missing graph: also an edge refusal.
        assert client.request("GET", "/schedule/stream").status == 400
        # A malformed budget: the router parses the query exactly like
        # a replica, so this is an edge refusal too.
        raw = client.request(
            "GET", "/schedule/stream?graph=HAL&nodes=zero"
        )
        assert raw.status == 400
        assert "integer" in raw.json()["error"]


class TestAggregatedMetrics:
    def test_three_sections_and_cluster_sums(
        self, replicas, router_factory
    ):
        _, _, client = router_factory(replicas.addresses())
        client.schedule("AR", algorithm="meta2")
        metrics = client.metrics()
        assert set(metrics) == {"router", "replicas", "cluster"}
        router = metrics["router"]
        for counter in (
            "routed",
            "coalesced",
            "retried",
            "failed_over",
            "failed",
            "per_replica",
            "ring",
        ):
            assert counter in router
        assert set(router["ring"]["members"]) == set(
            replicas.addresses()
        )
        per_replica = metrics["replicas"]
        assert set(per_replica) == set(replicas.addresses())
        assert all(entry["up"] for entry in per_replica.values())
        assert metrics["cluster"]["replicas_up"] == 2
        assert metrics["cluster"]["computed"] == sum(
            entry["metrics"]["computed"]
            for entry in per_replica.values()
        )

    def test_healthz_reports_replica_counts(
        self, replicas, router_factory
    ):
        _, _, client = router_factory(replicas.addresses())
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "dispatcher"
        assert health["replicas_up"] == 2
        assert health["replicas_total"] == 2


class TestFailover:
    def test_draining_router_answers_503(
        self, replicas, router_factory
    ):
        router, loop, client = router_factory(replicas.addresses())
        router._draining = True
        raw = client.schedule_raw("HAL")
        assert raw.status == 503
        assert "retry-after" in raw.headers
        router._draining = False

    def test_all_replicas_down_answers_502_and_counts_failed(
        self, router_factory
    ):
        # Nothing listens on this port: every attempt is refused.
        with ReplicaSet(count=1) as doomed:
            address = doomed.addresses()[0]
        router, _, client = router_factory(
            [address], health_interval_s=30.0
        )
        raw = client.schedule_raw("HAL")
        assert raw.status == 502
        assert "all replicas failed" in raw.json()["error"]
        metrics = client.metrics()
        assert metrics["router"]["failed"] == 1
        assert metrics["router"]["ejected"] == 1
        assert metrics["cluster"]["replicas_up"] == 0

    def test_ejected_replica_is_readmitted_by_probe(
        self, replicas, router_factory
    ):
        router, loop, client = router_factory(
            replicas.addresses(), health_interval_s=30.0
        )
        victim = replicas.addresses()[0]

        async def eject_then_probe():
            # Eject and sample synchronously within one task step so
            # the health loop's own sweep cannot interleave a readmit
            # before we observe the down state.
            router._eject(victim)
            was_down = victim not in router.up_replicas
            states = await router.check_replicas()
            return was_down, states

        was_down, states = asyncio.run_coroutine_threadsafe(
            eject_then_probe(), loop
        ).result(10)
        assert was_down
        assert states[victim] is True
        assert victim in router.up_replicas
        assert router.metrics.readmitted >= 1

    def test_kill_one_replica_mid_burst_zero_client_failures(
        self, router_factory, tmp_path
    ):
        """The CI smoke scenario in miniature: SIGKILL one of two
        replicas while a burst is in flight; every client request must
        still answer 200, with the failover counters accounting for
        the rescue."""
        with ReplicaSet(count=2, batch_window_ms=2.0) as own:
            _, _, client = router_factory(
                own.addresses(), health_interval_s=0.2
            )
            graphs = _inline_jobs(tag=3, count=6)

            def fire(graph):
                return client.schedule_raw(graph, algorithm="list")

            # Warm-up wave, then kill, then the rescue wave.
            with ThreadPoolExecutor(max_workers=6) as pool:
                first = list(pool.map(fire, graphs))
            assert all(r.status == 200 for r in first)

            # Kill a replica that demonstrably owns burst keys (ring
            # ownership depends on the ephemeral ports), so failover
            # is guaranteed to trigger.
            victim = first[0].headers["x-repro-replica"]
            own.kill(own.addresses().index(victim))
            with ThreadPoolExecutor(max_workers=6) as pool:
                second = list(pool.map(fire, graphs * 2))
            assert all(r.status == 200 for r in second), [
                r.status for r in second
            ]

            metrics = client.metrics()
            router_counters = metrics["router"]
            assert router_counters["failed"] == 0
            assert router_counters["failed_over"] > 0
            assert router_counters["retried"] > 0
            assert metrics["cluster"]["replicas_up"] == 1


class TestRouterConstruction:
    def test_requires_replicas(self):
        with pytest.raises(ReproError):
            DispatchRouter([])

    def test_rejects_duplicates(self):
        with pytest.raises(ReproError):
            DispatchRouter(["127.0.0.1:9999", "127.0.0.1:9999"])

    def test_rejects_malformed_address(self):
        with pytest.raises(ReproError):
            DispatchRouter(["badhost:notaport"])


class TestShutdown:
    def test_stop_returns_when_a_probe_swallows_its_cancel(self):
        """On Python 3.11, ``asyncio.wait_for`` inside a probe can
        swallow a cancel that races with the exchange finishing.  The
        health loop must still end once the router drains, or ``stop``
        waits on it forever.  The outer ``wait_for`` keeps a hang
        finite: its cancel reaches the loop through ``stop``'s await,
        so a hung ``stop`` shows as the elapsed time, not a stuck
        test."""
        interval = 0.05
        swallowed = []

        async def probe(name):
            try:
                await asyncio.sleep(3600)
            except asyncio.CancelledError:
                if swallowed:
                    raise
                swallowed.append(name)
                return False
            return True

        async def scenario():
            router = DispatchRouter(
                ["127.0.0.1:9"], port=0, health_interval_s=interval
            )
            router._probe = probe
            await router.start()
            await asyncio.sleep(4 * interval)  # the probe is in flight
            loop = asyncio.get_running_loop()
            started = loop.time()
            drained = await asyncio.wait_for(router.stop(), 100 * interval)
            return drained, loop.time() - started

        drained, elapsed = asyncio.run(scenario())
        assert swallowed == ["127.0.0.1:9"]
        assert drained is True
        assert elapsed < 20 * interval, elapsed

    def test_a_cancel_aimed_at_stop_propagates(self):
        """``stop`` absorbs its health tasks' cancels, never its own: a
        shutdown bound wrapped around ``stop`` must still fire while a
        probe is slow to honour its cancel."""
        honoured = []

        async def probe(name):
            try:
                await asyncio.sleep(3600)
            except asyncio.CancelledError:
                await asyncio.sleep(2.0)  # slow to honour the cancel
                honoured.append(name)
                raise
            return True

        async def scenario():
            router = DispatchRouter(
                ["127.0.0.1:9"], port=0, health_interval_s=0.05
            )
            router._probe = probe
            await router.start()
            await asyncio.sleep(0.2)  # the probe is in flight
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(router.stop(), 0.2)
            return loop.time() - started

        elapsed = asyncio.run(scenario())
        assert elapsed < 1.0, elapsed
        assert honoured == []  # the bound fired before the probe ended


class TestDispatchCli:
    def test_dispatch_requires_replica_flag(self, capsys):
        from repro.__main__ import main

        assert main(["dispatch"]) == 2
        assert "--replica" in capsys.readouterr().err

    def test_dispatch_process_end_to_end(self):
        """``repro dispatch`` boots, routes, and drains on SIGTERM —
        the same sequence the CI dispatch-smoke job drives."""
        with ReplicaSet(count=1, batch_window_ms=2.0) as replica_set:
            process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "dispatch",
                    "--port",
                    "0",
                    "--replica",
                    replica_set.addresses()[0],
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            captured = ""
            try:
                line = process.stdout.readline()
                captured = line
                assert "listening on" in line, line
                port = int(
                    line.split("http://", 1)[1].split()[0].rsplit(
                        ":", 1
                    )[1]
                )
                client = ServeClient(port=port, timeout=60)
                client.wait_ready(15)
                body = client.schedule("HAL", algorithm="meta2")
                assert body["length"] == 8
                metrics = client.metrics()
                assert metrics["router"]["routed"] == 1
                process.send_signal(signal.SIGTERM)
                out, _ = process.communicate(timeout=30)
                captured += out
                assert process.returncode == 0, out
                assert "shutdown clean" in out
            except Exception as exc:
                # Keep the router's own account of a failure: kill it,
                # collect what it printed, and put that in the message.
                process.kill()
                if not process.stdout.closed:
                    captured += process.communicate(timeout=10)[0]
                raise AssertionError(
                    f"{exc!r}\nrouter output:\n{captured}"
                ) from exc
            finally:
                if process.poll() is None:
                    process.kill()
                    process.communicate(timeout=10)


class TestReplicaSetHarness:
    def test_boot_and_graceful_stop(self, tmp_path):
        replica_set = ReplicaSet(
            count=2,
            batch_window_ms=2.0,
            cache_root=tmp_path / "stores",
        ).start()
        try:
            addresses = replica_set.addresses()
            assert len(addresses) == len(set(addresses)) == 2
            for index in range(2):
                assert replica_set.client(index).healthz()[
                    "status"
                ] == "ok"
            # Each replica got its own sharded store directory.
            assert (tmp_path / "stores" / "replica-0").is_dir()
            assert (tmp_path / "stores" / "replica-1").is_dir()
        finally:
            codes = replica_set.stop()
        # SIGTERM drains gracefully: both exit 0.
        assert set(codes) == set(addresses)
        assert all(code == 0 for code in codes.values()), codes

    def test_terminated_member_reports_not_alive(self):
        with ReplicaSet(count=1) as replica_set:
            member = replica_set.terminate(0)
            assert member.wait(20) == 0
            assert not member.alive
