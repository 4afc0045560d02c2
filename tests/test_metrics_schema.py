"""The ``/metrics`` documents against their declarations.

Four contracts:

1. the key set and nesting of a replica's, a peered replica's and a
   router's ``/metrics`` match ``metrics_keys_golden.json`` — captured
   from the code before :mod:`repro.metrics` existed — except for the
   replica counters the router's ``cluster`` section now also sums;
2. the ``cluster`` section sums every declared replica counter over the
   up replicas and sums no gauge;
3. :func:`repro.metrics.zero` leaves a metric the owner's class derives
   to the class;
4. each owner's snapshot opens with its declared group, in declaration
   order, and no two replica groups declare the same name.
"""

import asyncio
import json
from pathlib import Path

import pytest

from repro import metrics
from repro.dispatch.metrics import DispatchMetrics
from repro.dispatch.router import DispatchRouter
from repro.engine import BatchEngine
from repro.serve.metrics import ServiceMetrics
from repro.serve.server import ScheduleServer
from repro.store import ClusterStore

GOLDEN = Path(__file__).with_name("metrics_keys_golden.json")

#: Replica counters the cluster section did not sum when the golden
#: was captured.
ADDED_TO_CLUSTER = (
    "hier_jobs",
    "hier_rounds_total",
    "hier_partitions_total",
    "peer_breaker_opened",
    "peer_breaker_closed",
)

UP_A, UP_B, DOWN = "127.0.0.1:9101", "127.0.0.1:9102", "127.0.0.1:9103"


def key_tree(value):
    """``value``'s dict keys, recursively; every leaf is None."""
    if isinstance(value, dict):
        return {key: key_tree(item) for key, item in value.items()}
    return None


def replica_payload(**kwargs) -> dict:
    server = ScheduleServer(engine=None, **kwargs)
    try:
        server.metrics.record_compute("list(ready)", 0.001)
        return json.loads(json.dumps(server.metrics_payload()))
    finally:
        server.engine.shutdown()
        if isinstance(server.engine.cache, ClusterStore):
            server.engine.cache.close(timeout=1.0)


def routed_payload(scrapes: dict) -> dict:
    """The router's ``/metrics`` over canned replica scrapes."""
    router = DispatchRouter(list(scrapes))

    async def scrape(name):
        return scrapes[name]

    router._scrape = scrape
    router.metrics.record_routed(next(iter(scrapes)))
    return asyncio.run(router.cluster_metrics())


@pytest.fixture(scope="module")
def trees():
    plain = replica_payload()
    peered = replica_payload(peers=["127.0.0.1:9001"], publish="off")
    routed = routed_payload(
        {
            UP_A: {"up": True, "metrics": peered},
            UP_B: {"up": False, "error": "refused"},
        }
    )
    return {
        "replica": key_tree(plain),
        "peered_replica": key_tree(peered),
        "router": key_tree(routed),
    }


@pytest.mark.parametrize("setup", ["replica", "peered_replica", "router"])
def test_metrics_keys_match_golden(trees, setup):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[setup]
    if setup == "router":
        expected["cluster"].update(dict.fromkeys(ADDED_TO_CLUSTER))
    assert trees[setup] == expected


#: Every metric a replica's ``/metrics`` may carry, by kind.
REPLICA_METRICS = {
    name: kind
    for group in metrics.REPLICA_GROUPS
    for name, kind in group.items()
}

# Distinct values per replica and metric; UP_B runs without a peer
# tier, so its store metrics are absent and add nothing.
SCRAPE_A = {name: 10 + index for index, name in enumerate(REPLICA_METRICS)}
SCRAPE_B = {
    name: 1000 * (index + 1)
    for index, name in enumerate(REPLICA_METRICS)
    if name not in metrics.STORE
}


@pytest.fixture(scope="module")
def cluster():
    scrapes = {
        UP_A: {"up": True, "metrics": SCRAPE_A},
        UP_B: {"up": True, "metrics": SCRAPE_B},
        DOWN: {"up": False, "error": "refused"},
    }
    return routed_payload(scrapes)["cluster"]


def test_cluster_sums_every_counter_over_up_replicas(cluster):
    assert cluster["replicas_up"] == 2
    assert cluster["replicas_total"] == 3
    for name, kind in REPLICA_METRICS.items():
        if kind == metrics.COUNTER:
            assert cluster[name] == SCRAPE_A[name] + SCRAPE_B.get(name, 0)


def test_cluster_sums_no_gauge(cluster):
    summed = set(cluster) - {"replicas_up", "replicas_total"}
    gauges = {
        name for name, kind in REPLICA_METRICS.items() if kind == metrics.GAUGE
    }
    assert gauges and not summed & gauges


def test_zero_leaves_class_derived_metrics_to_the_class():
    class Owner:
        @property
        def in_flight(self):
            return 7

    owner = Owner()
    metrics.zero(owner, metrics.SERVE)
    snapshot = metrics.read(owner, metrics.SERVE)
    assert snapshot["in_flight"] == 7
    assert snapshot["computed"] == 0


def test_replica_groups_share_no_name():
    """A replica's groups merge into one flat ``/metrics`` dict, so a
    name declared twice would silently shadow the other owner's value."""
    names = [name for group in metrics.REPLICA_GROUPS for name in group]
    assert len(names) == len(set(names))


def serve_snapshot():
    return ServiceMetrics().snapshot()


def router_snapshot():
    return DispatchMetrics().snapshot()


def store_snapshot():
    store = ClusterStore([])
    try:
        return store.peer_stats()
    finally:
        store.close(timeout=1.0)


def engine_snapshot():
    engine = BatchEngine()
    try:
        return engine.crash_stats()
    finally:
        engine.shutdown()


@pytest.mark.parametrize(
    "snapshot,group",
    [
        (serve_snapshot, metrics.SERVE),
        (router_snapshot, metrics.ROUTER),
        (store_snapshot, metrics.STORE),
        (engine_snapshot, metrics.ENGINE),
    ],
    ids=["serve", "router", "store", "engine"],
)
def test_owner_snapshot_opens_with_its_group(snapshot, group):
    values = snapshot()
    assert list(values)[: len(group)] == list(group)
    assert all(values[name] == 0 for name in group)


def test_cluster_sums_of_no_replicas_are_zero():
    sums = metrics.cluster_sums([])
    counters = {
        name
        for name, kind in REPLICA_METRICS.items()
        if kind == metrics.COUNTER
    }
    assert set(sums) == counters
    assert not any(sums.values())


def test_latency_window_keeps_the_newest_samples():
    window = metrics.LatencyWindow(size=4)
    for seconds in (9.0, 9.0, 9.0, 0.001, 0.002, 0.003, 0.004):
        window.observe(seconds)
    snapshot = window.snapshot()
    assert list(snapshot) == list(metrics.LATENCY)
    assert snapshot["latency_samples"] == 4
    assert snapshot["latency_p50_ms"] == pytest.approx(3.0)
    assert snapshot["latency_p95_ms"] == pytest.approx(4.0)
