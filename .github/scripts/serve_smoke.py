import json
import signal
import statistics
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.graphs import get_graph
from repro.ir.serialize import dfg_to_dict
from repro.serve.client import ServeClient

client = ServeClient(port=8765, timeout=60)
print("health:", client.wait_ready(30))

# --- Burst of concurrent duplicates: one compute per key. ---
names = ["HAL", "AR", "FIR"]
requests = names * 8
with ThreadPoolExecutor(max_workers=12) as pool:
    responses = list(pool.map(
        lambda n: client.schedule_raw(n, algorithm="meta2"),
        requests,
    ))
assert all(r.status == 200 for r in responses), \
    [r.status for r in responses]
metrics = client.metrics()
print("metrics:", json.dumps(metrics, sort_keys=True))
assert metrics["computed"] == len(names), metrics
assert metrics["engine_cache"]["stored"] == len(names), metrics
dupes = len(requests) - len(names)
assert metrics["coalesced"] + metrics["cache_hits"] == dupes, metrics

# --- Identical bodies per request, whatever the source. ---
by_name = {}
for name, r in zip(requests, responses):
    by_name.setdefault(name, set()).add(r.body)
assert all(len(bodies) == 1 for bodies in by_name.values()), {
    n: len(b) for n, b in by_name.items()
}

# --- Warm hits skip the batch window (20 ms on this server). ---
batches = client.metrics()["batches"]
seconds = []
for index in range(50):
    name = names[index % len(names)]
    started = time.perf_counter()
    hit = client.schedule_raw(name, algorithm="meta2")
    seconds.append(time.perf_counter() - started)
    assert hit.status == 200 and hit.source == "cache", (name, hit.status)
    assert hit.body in by_name[name], f"{name}: hit differs from warm answer"
hit_ms = statistics.median(seconds) * 1000.0
print(f"warm hit median: {hit_ms:.2f} ms")
assert hit_ms < 10.0, f"warm hits waited out the window: {hit_ms:.2f} ms"
assert client.metrics()["batches"] == batches, "hits flushed batches"

# --- Artifact payload round-trips through an inline graph. ---
ef = get_graph("EF")
rich = client.schedule(dfg_to_dict(ef), artifacts=True, gaps=True)
assert rich["artifact"]["length"] == rich["length"], rich
assert len(rich["artifact"]["ops"]) >= ef.num_nodes, rich
cached = client.schedule(dfg_to_dict(ef), artifacts=True, gaps=True)
assert cached == rich, "cached artifact response diverged"

# --- Overload: a 1-deep queue answers 429, then recovers. ---
overload = subprocess.Popen(
    ["repro", "serve", "--port", "8766", "--max-queue", "1",
     "--batch-window-ms", "500"],
    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
)
try:
    tiny = ServeClient(port=8766, timeout=60)
    tiny.wait_ready(30)
    statuses = []
    slow = threading.Thread(
        target=lambda: statuses.append(
            tiny.schedule_raw("HAL").status))
    slow.start()
    deadline = time.monotonic() + 10
    while tiny.metrics()["in_flight"] < 1:
        assert time.monotonic() < deadline, "never admitted"
        time.sleep(0.01)
    rejected = tiny.schedule_raw("FIR")
    assert rejected.status == 429, rejected.status
    assert "retry-after" in rejected.headers, rejected.headers
    slow.join(30)
    assert statuses == [200], statuses
    assert tiny.schedule_raw("FIR").status == 200
    overload.send_signal(signal.SIGTERM)
    out, _ = overload.communicate(timeout=30)
    assert overload.returncode == 0, out
    assert "shutdown clean" in out, out
finally:
    if overload.poll() is None:
        overload.kill()
print("serve smoke ok")
