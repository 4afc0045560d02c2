"""In-process probes of single layers, run only in the traced run.

Each probe calls one layer's public entry point under a span, so the
per-layer numbers are span self times or span-duration medians.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Sequence

from common import Tracer, median
from repro.core.scheduler import ThreadedScheduler
from repro.engine.batch import BatchEngine
from repro.engine.job import FDS_SLACK, JobSpec
from repro.engine.keys import CacheKeyResolver
from repro.ir.analysis import diameter
from repro.ir.serialize import dfg_from_dict
from repro.scheduling.force_directed import force_directed_schedule
from repro.scheduling.list_scheduler import ListPriority, list_schedule
from repro.scheduling.resources import ResourceSet
from repro.serve import protocol
from repro.serve.coalescer import RequestCoalescer

_META = {
    "threaded(meta2)": "meta2-topological",
    "threaded(meta4)": "meta4-list-order",
}
_PRIORITY = {
    "list(ready)": ListPriority.READY_ORDER,
    "list(critical-path)": ListPriority.SINK_DISTANCE,
}
_KERNEL_SPAN = {
    "force-directed": "scheduling.fds",
    "list(ready)": "scheduling.list",
    "list(critical-path)": "scheduling.list",
    "threaded(meta2)": "core.threaded",
    "threaded(meta4)": "core.threaded",
}

#: Repetitions of the per-request micro probes (medians are reported).
_REPS = 5


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def kernels(tracer: Tracer, specs: Sequence[JobSpec]) -> Dict[str, float]:
    """Build and schedule each unique job once, in-process, under spans.

    Times are totals over one pass, so they compare directly with the
    engine's work per round; shares are of the summed kernel time.
    """
    work = 0
    with tracer.span("probe.kernels") as root:
        for spec in specs:
            with tracer.span("ir.build", parent=root):
                dfg = spec.graph.build()
            resources = ResourceSet.parse(spec.resources)
            name = _KERNEL_SPAN[spec.algorithm]
            if name == "core.threaded":
                with tracer.span(name, parent=root):
                    scheduler = ThreadedScheduler(
                        dfg, resources=resources, meta=_META[spec.algorithm]
                    ).run()
                    scheduler.harden()
                work += scheduler.state.stats.total_work()
            elif name == "scheduling.fds":
                latency = diameter(dfg) + FDS_SLACK
                with tracer.span(name, parent=root):
                    force_directed_schedule(dfg, resources, latency=latency)
            else:
                with tracer.span(name, parent=root):
                    list_schedule(dfg, resources, _PRIORITY[spec.algorithm])
    threaded = tracer.self_seconds("core.threaded")
    fds = tracer.self_seconds("scheduling.fds")
    lists = tracer.self_seconds("scheduling.list")
    total = threaded + fds + lists
    return {
        "ir.build_ms": _ms(tracer.self_seconds("ir.build")),
        "core.threaded_ms": _ms(threaded),
        "core.threaded_work": work,
        "core.threaded_share": threaded / total if total else 0.0,
        "scheduling.fds_ms": _ms(fds),
        "scheduling.list_ms": _ms(lists),
        "scheduling.fds_share": fds / total if total else 0.0,
    }


def engine_overhead(
    tracer: Tracer, specs: Sequence[JobSpec], build_ms: float
) -> float:
    """Per-job serial engine time beyond one graph build and the kernel
    (key hashing, artifact capture, cache bookkeeping), in ms.

    Kernel time is each result's own ``runtime_s`` from the same run,
    so drift in machine speed between probes cannot leak into it.
    """
    with tracer.span("engine.run_serial"):
        results = BatchEngine(workers=1, capture_schedules=True).run(specs)
    serial = tracer.self_seconds("engine.run_serial")
    kernel = sum(result.runtime_s for result in results)
    return (_ms(serial - kernel) - build_ms) / len(specs)


def parse_inline_us(tracer: Tracer, bodies: Sequence[bytes]) -> float:
    """Median time to load one inline graph document (ir layer)."""
    for body in bodies:
        graph = json.loads(body)["graph"]
        if isinstance(graph, dict):
            with tracer.span("ir.parse_inline"):
                dfg_from_dict(graph)
    return median(tracer.durations("ir.parse_inline")) * 1e6


def cache_key_us(tracer: Tracer, bodies: Sequence[bytes]) -> float:
    """Median time to key one inline request on first sight, as the
    router does: rebuild the graph, fingerprint it, hash the key."""
    for body in bodies:
        spec = protocol.parse_request(body).spec
        with tracer.span("ir.cache_key"):
            CacheKeyResolver().key(spec)
    return median(tracer.durations("ir.cache_key")) * 1e6


def serve_path(
    tracer: Tracer, bodies: Sequence[bytes], sequence: Sequence[int]
) -> Dict[str, float]:
    """The hit path of one replica, in-process: engine submit on a warm
    key, the coalescer around it, and response encoding."""
    requests = [protocol.parse_request(body) for body in bodies]
    specs = list({request.spec: None for request in requests})
    engine = BatchEngine(workers=1, compute_gaps=True, capture_schedules=True)
    engine.run(specs)
    for _ in range(_REPS):
        for spec in specs:
            with tracer.span("engine.submit"):
                engine.submit([spec])
    submit = median(tracer.durations("engine.submit"))

    async def coalesce() -> None:
        coalescer = RequestCoalescer(engine)
        try:
            for _ in range(_REPS):
                for spec in specs:
                    with tracer.span("serve.coalescer"):
                        await coalescer.schedule(spec)
            await coalescer.drain()
        finally:
            coalescer.close()

    asyncio.run(coalesce())
    results = {spec: engine.submit([spec])[0] for spec in specs}
    for index in sequence:
        request = requests[index]
        with tracer.span("serve.encode"):
            protocol.encode_json(
                protocol.response_payload(results[request.spec], request)
            )
    return {
        "engine.hit_submit_us": submit * 1e6,
        "serve.coalescer_wait_ms": _ms(
            median(tracer.durations("serve.coalescer")) - submit
        ),
        "serve.encode_us": median(tracer.durations("serve.encode")) * 1e6,
    }
