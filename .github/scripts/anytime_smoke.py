"""CI anytime-smoke: the anytime exact tier end to end.

Boot 1 router + 2 peer-meshed replicas, seed the heuristic tier with
a force-directed result, then stream ``bnb-anytime`` improvements for
the same graph through the router and assert the tier's contracts:

- the SSE stream's incumbents are monotone non-increasing and end in
  a proved-optimality terminal event that beats the FDS seed;
- exactly one replica ran the improver (canonical-key routing), and
  the improved canonical entry is peer-visible on the *other* replica
  (accepted rewrites publish across the mesh);
- the ``exact`` alias answers with the ``bnb-anytime`` entry's key
  and bytes;
- the heuristic tier is untouched: every force-directed length still
  matches the committed BENCH_baseline.json;
- a fault-free cluster reports no ``publish_errors`` and no ``errors``.
"""
import json
import signal
import subprocess
import time

from repro.dispatch.testing import ReplicaSet
from repro.serve.client import ServeClient

replicas = ReplicaSet(
    count=2, batch_window_ms=2.0, peer_mesh=True
).start()
router_args = ["repro", "dispatch", "--port", "8793",
               "--health-interval", "0.3"]
for address in replicas.addresses():
    router_args += ["--replica", address]
router = subprocess.Popen(
    router_args,
    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
)
try:
    client = ServeClient(port=8793, timeout=120)
    print("router health:", client.wait_ready(30))

    # --- Seed the heuristic tier: the cached FDS entry is what the
    # improver's incumbent may start from. ---
    fds = client.schedule_raw("HAL", algorithm="force-directed")
    assert fds.status == 200, fds.status
    fds_length = fds.json()["length"]
    print("FDS seed length:", fds_length)

    # --- Stream improvements through the router. ---
    events = list(client.schedule_stream("HAL", timeout=180))
    assert events and events[0]["type"] == "incumbent", events[:1]
    lengths = [e["length"] for e in events if e["type"] == "incumbent"]
    assert lengths == sorted(lengths, reverse=True), lengths
    terminal = events[-1]
    print("terminal event:", json.dumps(terminal, sort_keys=True))
    assert terminal["type"] == "optimal", terminal
    assert terminal["proved"] is True, terminal
    assert terminal["length"] <= min(lengths), (terminal, lengths)
    assert terminal["length"] < fds_length, (
        "the proved optimum must beat the FDS seed", terminal, fds_length)

    # --- Exactly one replica ran the improver: the router routes the
    # stream by the canonical bnb-anytime key. ---
    jobs = [replicas.client(i).metrics()["improve_jobs"]
            for i in range(2)]
    print("improve_jobs per replica:", jobs)
    assert sorted(jobs) == [0, 1], jobs
    owner = jobs.index(1)
    other = 1 - owner
    owner_metrics = replicas.client(owner).metrics()
    assert owner_metrics["proved_optimal"] == 1, owner_metrics
    assert owner_metrics["improved_entries"] >= 1, owner_metrics

    # --- The improved canonical entry now serves POST /schedule from
    # cache on its owner, carrying the proof... ---
    served = replicas.client(owner).schedule_raw(
        "HAL", algorithm="bnb-anytime", artifacts=True)
    assert served.status == 200, served.status
    body = served.json()
    assert body["length"] == terminal["length"], body["length"]
    assert body["artifact"]["meta"]["bnb"]["proved"] is True, body
    key = served.headers["x-repro-key"]

    # --- `exact` is an alias of bnb-anytime: the same canonical key,
    # and the same proved entry, byte for byte. ---
    alias = replicas.client(owner).schedule_raw(
        "HAL", algorithm="exact", artifacts=True)
    assert alias.status == 200, alias.status
    assert alias.headers["x-repro-key"] == key, (alias.headers, key)
    assert alias.body == served.body, (alias.body, served.body)
    print("exact alias serves the proved bnb-anytime entry")

    # --- ...and is peer-visible on the OTHER replica: the accepted
    # rewrite published across the mesh (async, so poll briefly). ---
    deadline = time.monotonic() + 20
    entry = None
    while time.monotonic() < deadline:
        entry = replicas.client(other).cache_entry(key)
        if entry is not None:
            break
        time.sleep(0.2)
    assert entry is not None, "improved entry never reached the peer"
    assert entry["length"] == terminal["length"], entry["length"]
    assert entry["artifact"]["meta"]["bnb"]["proved"] is True, entry
    print("peer-visible entry:", entry["length"], "proved")

    # --- The heuristic tier is untouched: FDS lengths still match the
    # committed baseline (the anytime tier rewrites only its own
    # canonical entries, never the seeds it read). ---
    baseline = json.load(open("BENCH_baseline.json"))["results"]
    checked = 0
    for row in baseline:
        if row["algorithm"] != "force-directed":
            continue
        response = client.schedule_raw(
            row["graph"], algorithm="force-directed")
        assert response.status == 200, (row["graph"], response.status)
        got = response.json()["length"]
        assert got == row["length"], (row["graph"], got, row["length"])
        checked += 1
    assert checked > 0, "baseline carried no force-directed rows"
    print(f"FDS baseline intact across {checked} graphs")

    # --- A healthy cluster reports no peer errors: no fault was
    # injected, so every publish (the rewrites included) was delivered
    # and every exchange was well formed.  Publishes are async: let the
    # queues drain first. ---
    deadline = time.monotonic() + 20
    while any(replicas.client(i).metrics()["publish_pending"]
              for i in range(2)):
        assert time.monotonic() < deadline, "publishes never drained"
        time.sleep(0.2)
    cluster = client.metrics()["cluster"]
    assert cluster["publish_errors"] == 0, cluster
    assert cluster["errors"] == 0, cluster
    print("cluster peer errors: none")

    # --- Router drains clean on SIGTERM. ---
    router.send_signal(signal.SIGTERM)
    out, _ = router.communicate(timeout=30)
    assert router.returncode == 0, out
    assert "shutdown clean" in out, out
    print("anytime smoke ok")
finally:
    if router.poll() is None:
        router.kill()
        router.communicate(timeout=10)
    replicas.stop()
