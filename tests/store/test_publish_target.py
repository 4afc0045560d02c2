"""A fresh entry is published to the replica the router fails its key
over to, so a replica's death leaves its results on the survivor that
inherits its keys."""

import hashlib

from repro.dispatch.router import DispatchRouter
from repro.engine.job import JobResult
from repro.store.cluster import ClusterStore

MESH = ["127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"]


def result_for(key: str) -> JobResult:
    return JobResult(
        key=key,
        graph="HAL",
        graph_hash="a" * 64,
        num_ops=11,
        resources="4+/-,4*",
        algorithm="list",
        length=8,
        runtime_s=0.0,
    )


def test_publish_target_is_the_routers_first_failover():
    router = DispatchRouter(MESH)
    delivered = []

    def push(host, port, key, payload, timeout=None):
        delivered.append((f"{host}:{port}", key))

    stores = {
        name: ClusterStore(
            [peer for peer in MESH if peer != name],
            publish="sync",
            push=push,
        )
        for name in MESH
    }
    for n in range(500):
        key = hashlib.sha256(str(n).encode()).hexdigest()
        owner, failover = router.ring.preference(key)[:2]
        delivered.clear()
        stores[owner].put(result_for(key))
        assert delivered == [(failover, key)]
