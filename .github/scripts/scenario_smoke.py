"""Scenario smoke: all three constraint-scenario modes through a live
1-router / 2-replica cluster.

Asserts, end to end:

- every mode (memory-banked, I/O-pinned via ``io_schedule``,
  reliability-hardened) answers 200 through the router with the
  mode's semantic guarantees visible in the artifact;
- responses are byte-deterministic: a repeat of the same request
  body through the router matches the first answer byte for byte,
  whether computed, cached, or peer-served;
- one compute per unique key cluster-wide under a duplicate burst,
  with the per-mode ``scenario_*_jobs`` counters in the aggregated
  ``/metrics`` accounting each fresh compute exactly once;
- legacy key-compat: a scenario-free request produces the exact
  historical cache key (golden literal) in ``X-Repro-Key``, and a
  malformed scenario or inline graph answers 400 — never 500 —
  without disturbing the cluster.
"""

import hashlib
import json
import signal
import subprocess
from concurrent.futures import ThreadPoolExecutor

from repro.graphs import get_graph
from repro.graphs.scenario import IOPIN_PINS, TMRMARK_OPS
from repro.ir.serialize import dfg_fingerprint, dfg_to_dict
from repro.serve.client import ServeClient

MEMORY = {"mode": "memory", "banks": 2, "ports": 1}
RELIABILITY = {"mode": "reliability", "ops": list(TMRMARK_OPS)}

replicas = None
router = None
try:
    from repro.dispatch.testing import ReplicaSet

    replicas = ReplicaSet(
        count=2, batch_window_ms=5.0, peer_mesh=True
    ).start()
    router_args = ["repro", "dispatch", "--port", "8795",
                   "--health-interval", "0.3"]
    for address in replicas.addresses():
        router_args += ["--replica", address]
    router = subprocess.Popen(
        router_args,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    client = ServeClient(port=8795, timeout=60)
    print("router health:", client.wait_ready(30))

    # --- Mode 1: banked memory.  The scenario banks the flat mem FU;
    # the artifact's meta records the banking the worker applied. ---
    memory = client.schedule_raw(
        "MEMBANK", resources="2+/-,2*,2mem", algorithm="list",
        artifacts=True, scenario=MEMORY,
    )
    assert memory.status == 200, memory.status
    memory_meta = memory.json()["artifact"]["meta"]["scenario"]
    assert memory_meta["mode"] == "memory", memory_meta
    assert memory_meta["banks"] == 2 and memory_meta["ports"] == 1, \
        memory_meta

    # --- Mode 2: I/O pins via the io_schedule shorthand.  Every
    # pinned op must land on its exact step. ---
    io = client.schedule_raw(
        "IOPIN", algorithm="fds", artifacts=True,
        io_schedule=dict(IOPIN_PINS),
    )
    assert io.status == 200, io.status
    io_ops = io.json()["artifact"]["ops"]
    for op, step in IOPIN_PINS.items():
        assert io_ops[op]["step"] == step, (op, step, io_ops[op])

    # --- Mode 3: reliability hardening.  Replicas and voters are
    # inserted before scheduling and land in the artifact. ---
    tmr = client.schedule_raw(
        "TMRMARK", algorithm="list", artifacts=True,
        scenario=RELIABILITY,
    )
    assert tmr.status == 200, tmr.status
    inserted = set(tmr.json()["artifact"]["inserted"])
    for op in TMRMARK_OPS:
        missing = {f"{op}__r1", f"{op}__r2", f"{op}__vote"} - inserted
        assert not missing, missing

    # --- Byte-determinism + one compute per key cluster-wide: a
    # concurrent duplicate burst of all three modes must answer the
    # original bytes and move each mode counter exactly once. ---
    originals = {"memory": memory, "io": io, "reliability": tmr}

    def repeat(mode):
        if mode == "memory":
            return client.schedule_raw(
                "MEMBANK", resources="2+/-,2*,2mem",
                algorithm="list", artifacts=True, scenario=MEMORY)
        if mode == "io":
            return client.schedule_raw(
                "IOPIN", algorithm="fds", artifacts=True,
                io_schedule=dict(IOPIN_PINS))
        return client.schedule_raw(
            "TMRMARK", algorithm="list", artifacts=True,
            scenario=RELIABILITY)

    burst = list(originals) * 6
    with ThreadPoolExecutor(max_workers=12) as pool:
        responses = list(pool.map(repeat, burst))
    for mode, response in zip(burst, responses):
        assert response.status == 200, (mode, response.status)
        assert response.body == originals[mode].body, \
            f"{mode}: repeated bytes diverged"

    metrics = client.metrics()
    cluster = metrics["cluster"]
    print("cluster:", json.dumps(
        {k: cluster[k] for k in sorted(cluster) if "scenario" in k
         or k in ("computed", "cache_hits")}, sort_keys=True))
    assert cluster["scenario_memory_jobs"] == 1, cluster
    assert cluster["scenario_io_jobs"] == 1, cluster
    assert cluster["scenario_reliability_jobs"] == 1, cluster
    assert metrics["router"]["failed"] == 0, metrics["router"]

    # --- Legacy key-compat golden: a scenario-free request's key is
    # the exact historical sha256(graph_hash|resources|algorithm). ---
    plain = client.schedule_raw(
        "HAL", resources="2+/-,2*", algorithm="list")
    assert plain.status == 200, plain.status
    graph_hash = dfg_fingerprint(get_graph("HAL"))
    golden = hashlib.sha256(
        f"{graph_hash}|2+/-,2*|list(ready)".encode("utf-8")
    ).hexdigest()
    assert plain.headers["x-repro-key"] == golden, \
        "scenario refactor changed the historical cache key"

    # A scenario adds a suffix: same request + scenario must route to
    # a different key (its own cache entry and owner).
    hardened = client.schedule_raw(
        "HAL", resources="2+/-,2*", algorithm="list",
        scenario={"mode": "reliability", "ops": ["m1"]})
    assert hardened.status == 200, hardened.status
    assert hardened.headers["x-repro-key"] != golden

    # --- Malformed scenarios: strict 400s through the router, and
    # the cluster keeps answering afterwards. ---
    for bad in ({"mode": "warp"}, {"mode": "io", "pins": {}}, 42,
                {"mode": "memory", "banks": 2}):
        response = client.schedule_raw("HAL", scenario=bad)
        assert response.status == 400, (bad, response.status)
    # Malformed inline graphs: a non-list node set and a non-string
    # name are 400s too, never 500s.
    hal_doc = dfg_to_dict(get_graph("HAL"))
    for bad_graph in (dict(hal_doc, nodes=5), dict(hal_doc, name=["x"])):
        response = client.schedule_raw(bad_graph)
        assert response.status == 400, (bad_graph, response.status)
    assert client.schedule_raw("HAL").status == 200

    # --- Router drains clean on SIGTERM. ---
    router.send_signal(signal.SIGTERM)
    out, _ = router.communicate(timeout=30)
    assert router.returncode == 0, out
    assert "shutdown clean" in out, out
    print("scenario smoke ok")
finally:
    if router is not None and router.poll() is None:
        router.kill()
        router.communicate(timeout=10)
    if replicas is not None:
        replicas.stop()
