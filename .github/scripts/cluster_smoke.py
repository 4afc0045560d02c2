import json
import signal
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.dispatch.testing import ReplicaSet
from repro.graphs.random_dags import random_layered_dag
from repro.ir.serialize import dfg_to_dict
from repro.serve.client import ServeClient

replicas = ReplicaSet(
    count=3, batch_window_ms=5.0, peer_mesh=True
).start()
router_args = ["repro", "dispatch", "--port", "8791",
               "--health-interval", "0.3"]
for address in replicas.addresses():
    router_args += ["--replica", address]
router = subprocess.Popen(
    router_args,
    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
)
try:
    client = ServeClient(port=8791, timeout=60)
    print("router health:", client.wait_ready(30))

    # --- Duplicate burst over the mesh: one compute per key
    # cluster-wide (peer fetches count as cache hits). ---
    graphs = [dfg_to_dict(random_layered_dag(8, seed=100 + s))
              for s in range(12)]
    with ThreadPoolExecutor(max_workers=16) as pool:
        responses = list(pool.map(
            lambda g: client.schedule_raw(g, algorithm="list"),
            graphs * 5,
        ))
    assert all(r.status == 200 for r in responses), \
        [r.status for r in responses]
    metrics = client.metrics()
    print("cluster:", json.dumps(metrics["cluster"], sort_keys=True))
    assert metrics["cluster"]["computed"] == len(graphs), \
        metrics["cluster"]
    assert metrics["cluster"]["replicas_up"] == 3, \
        metrics["cluster"]
    assert metrics["router"]["failed"] == 0, metrics["router"]

    # Pick a victim that demonstrably owns keys in the burst.
    owned = client.schedule_raw(graphs[0], algorithm="list")
    victim = owned.headers["x-repro-replica"]
    victim_index = replicas.addresses().index(victim)
    survivors = [i for i in range(3) if i != victim_index]

    # --- Peer fetch across the mesh: compute a fresh key on
    # the victim, then ask the survivors directly.  Publish
    # fanout is 1, so at least one survivor must peer-fetch,
    # and both must answer the exact bytes the victim
    # computed. ---
    probe = dfg_to_dict(random_layered_dag(9, seed=999))
    computed = replicas.client(victim_index).schedule_raw(
        probe, algorithm="list")
    assert computed.status == 200, computed.status
    for index in survivors:
        served = replicas.client(index).schedule_raw(
            probe, algorithm="list")
        assert served.status == 200, served.status
        assert served.body == computed.body, \
            "peer-served bytes diverged from the compute"
    survivor_hits = sum(
        replicas.client(i).metrics()["peer_hits"]
        for i in survivors
    )
    assert survivor_hits >= 1, "no survivor peer-fetched"

    # --- Before any fault, the cluster reports no peer errors:
    # every publish was delivered, every exchange well formed.
    # Publishes are async: let the queues drain first. ---
    deadline = time.monotonic() + 20
    while any(replicas.client(i).metrics()["publish_pending"]
              for i in range(3)):
        assert time.monotonic() < deadline, "publishes never drained"
        time.sleep(0.2)
    healthy = client.metrics()["cluster"]
    assert healthy["publish_errors"] == 0, healthy
    assert healthy["errors"] == 0, healthy

    # --- SIGTERM the victim mid-burst.  The cluster /metrics
    # aggregate only sums up replicas, so snapshot the victim
    # first to account for its computes. ---
    victim_computed = replicas.client(
        victim_index).metrics()["computed"]
    survivors_before = {
        i: replicas.client(i).metrics()["computed"]
        for i in survivors
    }
    statuses = []
    lock = threading.Lock()

    def sustained(graph):
        r = client.schedule_raw(graph, algorithm="list")
        with lock:
            statuses.append(r.status)

    burst = graphs * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(sustained, g) for g in burst[:16]]
        time.sleep(0.2)
        replicas.terminate(victim_index)   # SIGTERM mid-burst
        futures += [pool.submit(sustained, g) for g in burst[16:]]
        for f in futures:
            f.result(timeout=120)
    assert statuses and all(s == 200 for s in statuses), \
        [s for s in statuses if s != 200]
    assert replicas.members[victim_index].wait(30) == 0, \
        "replica drain failed"

    deadline = time.monotonic() + 20
    while client.metrics()["cluster"]["replicas_up"] != 2:
        assert time.monotonic() < deadline, "probe never ejected"
        time.sleep(0.2)
    metrics = client.metrics()
    print("after kill:",
          json.dumps(metrics["cluster"], sort_keys=True))
    assert metrics["router"]["failed"] == 0, metrics["router"]

    # The store invariant across the kill: the survivors
    # inherited the victim's keys without recomputing them
    # (publish put the entries on the failover targets), so
    # cluster-wide computes still equal unique keys.
    unique_keys = len(graphs) + 1   # burst graphs + probe
    total = metrics["cluster"]["computed"] + victim_computed
    assert total == unique_keys, (
        metrics["cluster"], victim_computed)
    for index in survivors:
        now = replicas.client(index).metrics()["computed"]
        assert now == survivors_before[index], \
            f"survivor {index} recomputed after the kill"
    assert metrics["cluster"]["peer_hits"] >= 1, \
        metrics["cluster"]

    # --- Router drains clean on SIGTERM. ---
    router.send_signal(signal.SIGTERM)
    out, _ = router.communicate(timeout=30)
    assert router.returncode == 0, out
    assert "shutdown clean" in out, out
    print("cluster store smoke ok")
finally:
    if router.poll() is None:
        router.kill()
        router.communicate(timeout=10)
    replicas.stop()
