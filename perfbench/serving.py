"""serve_hot and routed_mixed: closed loops against real services."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Sequence, Tuple

import inputs
import layers
from common import (
    BenchError,
    Connection,
    Service,
    Tracer,
    assert_no_children,
    closed_loop,
    descendants,
    free_ports,
    median,
    peak_rss_mb,
    scratch_dir,
    trace_overhead,
)
from repro.engine.job import JobSpec
from repro.serve import protocol

#: Fresh launches timed for ``setup_s``; the last one is measured.
SETUP_LAUNCHES = 5
#: Keep-alive client connections in each closed loop.
CLIENTS = 2
#: Warm requests sampled for the routed-versus-direct hop probe.
HOP_SAMPLE = 60
#: A closed loop's requests are cut into this many consecutive segments
#: (by completion order); rates and p50s are medians over segments.
SEGMENTS = 10
#: Fewest requests a segment may hold.
MIN_SEGMENT = 100


def _stop_all(services: Sequence[Service]) -> None:
    for service in services:
        service.stop()
    assert_no_children()


def _rss(services: Sequence[Service]) -> float:
    pids = []
    for service in services:
        pids += [service.process.pid, *descendants(service.process.pid)]
    return peak_rss_mb(pids)


def _latencies(records, started: float) -> Dict:
    """Throughput and client p50 latency of a closed loop.

    Each is the median over consecutive segments of the loop, so a few
    seconds of interference from outside move one segment, not the run.
    """
    count = max(1, min(SEGMENTS, len(records) // MIN_SEGMENT))
    cuts = [round(i * len(records) / count) for i in range(count + 1)]
    rates, p50s = [], []
    for low, high in zip(cuts, cuts[1:]):
        segment = records[low:high]
        finished = segment[-1][0]
        rates.append(len(segment) / (finished - started))
        started = finished
        p50s.append(median([record[1] for record in segment]))
    return {
        "throughput_per_s": median(rates),
        "latency_p50_ms": median(p50s) * 1000.0,
        "attempted": len(records),
        "problems": [record[2] for record in records if record[2]],
    }


def _loop_figures(records, started: float) -> Dict:
    """``_latencies`` of the whole loop, plus the tracing overhead when
    every other request was traced."""
    result = _latencies(records, started)
    if any(record[3] for record in records):
        result["overhead"] = trace_overhead(
            _latencies([r for r in records if not r[3]], started),
            _latencies([r for r in records if r[3]], started),
        )
    return result


def _steps(responses: Sequence[bytes]) -> int:
    """Sum of result lengths over the unique cache keys answered."""
    lengths = {}
    for body in responses:
        data = json.loads(body)
        lengths[data["key"]] = data["length"]
    return sum(lengths.values())


def _key(answer: bytes) -> str:
    """The cache key an answer names, shortened for messages."""
    try:
        return json.loads(answer)["key"][:12]
    except (ValueError, KeyError, TypeError):
        return "<no key>"


def _answer_problem(status: int, body: bytes) -> str:
    if status != 200:
        return f"HTTP {status}"
    data = json.loads(body)
    if data.get("error") is not None or data.get("length", 0) <= 0:
        return f"failed result {data.get('error')!r}"
    return ""


# ----------------------------------------------------------------------
# serve_hot


def _boot_replica() -> Service:
    service = Service(["serve", "--port", "0", "--workers", "1"])
    service.wait_listening()
    return service


def _warm(port: int, bodies: Sequence[bytes]) -> Tuple[List[bytes], List[str]]:
    conn = Connection(port)
    answers, problems = [], []
    try:
        for index, body in enumerate(bodies):
            status, _, data = conn.request("POST", "/schedule", body)
            problem = _answer_problem(status, data)
            if problem:
                problems.append(f"{_key(data)} warm: {problem}")
            answers.append(data)
    finally:
        conn.close()
    return answers, problems


def _hot_loop(service: Service, bodies, sequence, expected, seconds,
              tracer: Tracer) -> Dict:
    port = service.port
    requests = [bodies[index] for index in sequence]

    def check(index, status, headers, body):
        want = expected[sequence[index]]
        if status == 200 and body == want:
            return None
        return f"{_key(want)}: HTTP {status}, bytes differ from warm answer"

    conn = Connection(port)
    before = conn.get_json("/metrics")
    started = time.perf_counter()
    records = closed_loop(port, requests, check, CLIENTS, tracer,
                          deadline=started + seconds)
    after = conn.get_json("/metrics")
    conn.close()
    result = _loop_figures(records, started)
    batches = after["batches"] - before["batches"]
    jobs = (after["computed"] + after["cache_hits"]
            - before["computed"] - before["cache_hits"])
    result["serve"] = {
        "server_p50_ms": after["latency_p50_ms"],
        "computed_timed": after["computed"] - before["computed"],
        "batch_jobs": jobs / batches if batches else 0.0,
    }
    result["peak_rss_mb"] = _rss([service])
    return result


def run_serve_hot(seed: int, seconds: float, tracer: Tracer) -> Dict:
    bodies, sequence = inputs.serve_hot(seed)
    setups, problems = [], []
    expected = None
    for launch in range(SETUP_LAUNCHES):
        started = time.perf_counter()
        service = _boot_replica()
        try:
            answers, warm_problems = _warm(service.port, bodies)
        except BaseException:
            _stop_all([service])
            raise
        setups.append(time.perf_counter() - started)
        problems += warm_problems
        if expected is None:
            expected = answers
        else:
            problems += [
                f"{_key(want)}: launch {launch} warm answer differs"
                for got, want in zip(answers, expected) if got != want
            ]
        if launch < SETUP_LAUNCHES - 1:
            _stop_all([service])
    try:
        result = _hot_loop(service, bodies, sequence, expected, seconds,
                           tracer)
    finally:
        _stop_all([service])
    result["setup_s"] = median(setups)
    result["schedule_steps"] = _steps(expected)
    result["problems"] += problems
    # Every launch's warm pass checks each answer once, and each launch
    # after the first compares each answer with the first launch's.
    result["attempted"] += (2 * SETUP_LAUNCHES - 1) * len(bodies)
    if tracer.enabled:
        specs = _unique_specs(bodies)
        layer = layers.kernels(tracer, specs)
        layer.update(layers.serve_path(tracer, bodies, sequence))
        layer["ir.parse_inline_us"] = layers.parse_inline_us(tracer, bodies)
        serve = result["serve"]
        layer["serve.server_p50_ms"] = serve["server_p50_ms"]
        layer["serve.http_ms"] = (result["latency_p50_ms"]
                                  - serve["server_p50_ms"])
        layer["serve.batch_jobs"] = serve["batch_jobs"]
        layer["serve.computed_timed"] = serve["computed_timed"]
        layer.update(result["overhead"])
        result["layers"] = layer
    return result


def _unique_specs(bodies: Sequence[bytes]) -> List[JobSpec]:
    specs = [protocol.parse_request(body).spec for body in bodies]
    return list(dict.fromkeys(specs))


# ----------------------------------------------------------------------
# routed_mixed


@contextmanager
def _cluster():
    """Two peered replicas with fresh disk caches behind one router.

    Yields ``(router, replicas, boot_seconds)``; boot time runs from
    the first launch until the router reports both replicas up.
    """
    with scratch_dir("cluster-") as tmp:
        ports = free_ports(3)
        started = time.perf_counter()
        replicas = [
            Service([
                "serve", "--port", str(ports[i]), "--workers", "1",
                "--cache-dir", str(tmp / f"replica{i}"),
                "--peer", f"127.0.0.1:{ports[1 - i]}",
            ])
            for i in (0, 1)
        ]
        services = list(replicas)
        try:
            for replica in replicas:
                replica.wait_listening()
            router = Service(["dispatch", "--port", str(ports[2])]
                             + [arg for p in ports[:2]
                                for arg in ("--replica", f"127.0.0.1:{p}")])
            services.append(router)
            router.wait_listening()
            conn = Connection(router.port)
            try:
                while True:
                    metrics = conn.get_json("/metrics")
                    if (metrics["cluster"]["replicas_up"] == 2
                            and not metrics["router"]["ring"]["down"]):
                        break
                    if time.perf_counter() - started > 60:
                        raise BenchError("cluster never came up")
                    time.sleep(0.01)
            finally:
                conn.close()
            boot = time.perf_counter() - started
            yield router, replicas, boot
        finally:
            _stop_all(services)


def _routed_loop(router: Service, replicas, bodies, stream,
                 tracer: Tracer) -> Dict:
    first: Dict[int, bytes] = {}

    def check(index, status, headers, body):
        want = first.setdefault(stream[index], body)
        if want is body:
            problem = _answer_problem(status, body)
            return f"{_key(body)}: {problem}" if problem else None
        if status == 200 and body == want:
            return None
        return f"{_key(want)}: HTTP {status}, bytes differ from first answer"

    started = time.perf_counter()
    records = closed_loop(router.port, [bodies[k] for k in stream], check,
                          CLIENTS, tracer)
    result = _loop_figures(records, started)
    conn = Connection(router.port)
    metrics = conn.get_json("/metrics")
    conn.close()
    cluster, route = metrics["cluster"], metrics["router"]
    if cluster["computed"] != len(bodies):
        result["problems"].append(
            f"cluster computed {cluster['computed']} for "
            f"{len(bodies)} unique keys"
        )
    if len(first) != len(bodies):
        result["problems"].append(f"{len(bodies) - len(first)} keys unsent")
    result["attempted"] += 2
    caches = [entry["metrics"]["engine_cache"]
              for entry in metrics["replicas"].values() if entry["up"]]
    result["schedule_steps"] = _steps(first.values())
    result["peak_rss_mb"] = _rss([router, *replicas])
    result["cluster"] = {
        "engine.cache_hits": sum(c["hits"] for c in caches),
        "engine.cache_misses": sum(c["misses"] for c in caches),
        "store.computed": cluster["computed"],
        "store.peer_hits": cluster["peer_hits"],
        "store.peer_misses": cluster["peer_misses"],
        "store.published": cluster["published"],
        "store.publish_dropped": cluster["publish_dropped"],
        "dispatch.coalesced": route["coalesced"],
        "dispatch.retried": route["retried"],
        "dispatch.failed": route["failed"],
    }
    return result


def _hop_probe(tracer: Tracer, router: Service, replicas,
               bodies: Sequence[bytes]) -> Dict[str, float]:
    """Routed versus direct-to-owner p50 on identical warm requests,
    and the owner's ``GET /cache/<key>`` (the peer-fetch surface)."""
    routed = Connection(router.port)
    direct = {f"127.0.0.1:{r.port}": Connection(r.port) for r in replicas}
    try:
        for body in bodies[:HOP_SAMPLE]:
            with tracer.span("dispatch.routed"):
                _, headers, data = routed.request("POST", "/schedule", body)
            owner = direct[headers["X-Repro-Replica"]]
            with tracer.span("dispatch.direct"):
                owner.request("POST", "/schedule", body)
            key = json.loads(data)["key"]
            with tracer.span("store.peer_fetch"):
                status, _, _ = owner.request("GET", f"/cache/{key}")
            if status != 200:
                raise BenchError(f"owner has no entry for {key[:12]}")
    finally:
        routed.close()
        for conn in direct.values():
            conn.close()
    return {
        "dispatch.hop_ms": 1000.0 * (
            median(tracer.durations("dispatch.routed"))
            - median(tracer.durations("dispatch.direct"))
        ),
        "store.peer_fetch_ms": 1000.0 * median(
            tracer.durations("store.peer_fetch")
        ),
    }


def run_routed(seed: int, seconds: int, tracer: Tracer) -> Dict:
    bodies, stream = inputs.routed_mixed(seed, seconds)
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        with _cluster() as (_, _, boot):
            setups.append(boot)
    with _cluster() as (router, replicas, boot):
        setups.append(boot)
        result = _routed_loop(router, replicas, bodies, stream, tracer)
        if tracer.enabled:
            layer = _hop_probe(tracer, router, replicas, bodies)
    result["setup_s"] = median(setups)
    if tracer.enabled:
        layer.update(result["cluster"])
        layer.update(result["overhead"])
        layer.update(layers.kernels(tracer, _unique_specs(bodies)))
        layer["ir.parse_inline_us"] = layers.parse_inline_us(tracer, bodies)
        layer["ir.cache_key_us"] = layers.cache_key_us(tracer, bodies)
        result["layers"] = layer
    return result
