"""sweep_cold: cold batch rounds on an in-process two-worker engine."""

from __future__ import annotations

import os
import subprocess
import time
from typing import Dict, List

import inputs
import layers
from checks import GraphFacts, check_schedule
from common import (
    ROOT,
    BenchError,
    Tracer,
    assert_no_children,
    descendants,
    median,
    peak_rss_mb,
    program_env,
    repro_command,
    trace_overhead,
)
from repro.engine.batch import BatchEngine

#: Fresh ``repro batch`` launches timed for ``setup_s``.
SETUP_LAUNCHES = 5
#: A run measures at least this many rounds, however short ``--seconds``
#: (two of them traced in the traced run).
MIN_ROUNDS = 4


def setup_seconds() -> float:
    """Median time for a fresh ``repro batch --workers 2`` process to
    start, finish one tiny job and exit."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        started = time.perf_counter()
        done = subprocess.run(
            repro_command("batch", "HAL", "-a", "list", "--workers", "2"),
            cwd=str(ROOT),
            env=program_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        samples.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise BenchError(f"repro batch failed: {done.stderr[-500:]!r}")
    assert_no_children()
    return median(samples)


def _figures(rounds: List[float], jobs: int) -> Dict[str, float]:
    return {
        "throughput_per_s": median([jobs / t for t in rounds]),
        "latency_p50_ms": median(rounds) * 1000.0,
    }


def measure(jobs, facts, seconds: float, tracer: Tracer) -> Dict:
    """Cold rounds of the whole job set until ``seconds`` have passed.

    An enabled tracer spans every other round; the rest give the
    untraced figures its overhead is taken against.
    """
    rounds: List[float] = []
    traced: List[bool] = []
    busy: List[float] = []
    rss = 0.0
    attempted, problems = 0, []
    steps = None
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        # A fresh engine per round: new pool, empty in-memory cache.
        traced.append(tracer.alternate(len(rounds)))
        with BatchEngine(workers=2, capture_schedules=True) as engine:
            with tracer.span_if(traced[-1], "engine.run",
                                request=len(rounds)):
                started = time.perf_counter()
                results = engine.run(jobs)
                elapsed = time.perf_counter() - started
            pids = [os.getpid(), *descendants(os.getpid())]
            rss = max(rss, peak_rss_mb(pids))
        assert_no_children()
        rounds.append(elapsed)
        busy.append(sum(r.runtime_s for r in results) / (2 * elapsed))
        for spec, result in zip(jobs, results):
            attempted += 1
            problem = (
                result.error
                or ("served from cache" if result.cached else None)
                or check_schedule(
                    facts[spec.graph],
                    result.length,
                    result.artifact,
                    inputs.RESOURCE_SETS[spec.resources],
                    spec.algorithm,
                )
            )
            if problem:
                problems.append(f"{result.key[:12]} {spec.graph.describe()} "
                                f"{spec.algorithm}: {problem}")
        lengths = {r.key: r.length for r in results}
        if steps is None:
            steps = sum(lengths.values())
        else:
            attempted += 1
            if sum(lengths.values()) != steps:
                problems.append("schedule lengths changed between rounds")
    result = _figures(rounds, len(jobs))
    if tracer.enabled:
        result["overhead"] = trace_overhead(
            _figures([t for t, on in zip(rounds, traced) if not on],
                     len(jobs)),
            _figures([t for t, on in zip(rounds, traced) if on], len(jobs)),
        )
    return {
        **result,
        "schedule_steps": steps,
        "peak_rss_mb": rss,
        "pool_busy_ratio": median(busy),
        "attempted": attempted,
        "problems": problems,
    }


def run(seed: int, seconds: float, tracer: Tracer) -> Dict:
    jobs = inputs.sweep_jobs(seed)
    facts = {spec.graph: GraphFacts(spec.graph.build()) for spec in jobs}
    setup = setup_seconds()
    result = measure(jobs, facts, seconds, tracer)
    result["setup_s"] = setup
    if tracer.enabled:
        layer = layers.kernels(tracer, jobs)
        layer["engine.execute_overhead_ms"] = layers.engine_overhead(
            tracer, jobs, layer["ir.build_ms"]
        )
        layer["engine.pool_busy_ratio"] = result["pool_busy_ratio"]
        layer.update(result["overhead"])
        result["layers"] = layer
    return result
