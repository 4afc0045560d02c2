"""Parallel batch-scheduling engine with content-addressed caching.

The scaling substrate for the reproduction: run many scheduling jobs —
``(graph, resources, algorithm)`` tuples — across a process pool, with
deterministic seeding and a result cache keyed by graph content hash ×
resource signature × algorithm id.

Quickstart::

    from repro.engine import BatchEngine, registry_sweep

    engine = BatchEngine(workers=4, cache_dir=".repro-cache")
    results = engine.run(
        registry_sweep(
            paper_only=True,
            constraints=("2+/-,2*", "2+/-,1*"),
            algorithms=("list(ready)", "threaded(meta4)"),
        )
    )
    for r in results:
        print(r.graph, r.algorithm, r.length, r.cached)

Modules: :mod:`~repro.engine.algorithms` (the algorithm table: runners,
aliases, capabilities), :mod:`~repro.engine.job` (specs and results),
:mod:`~repro.engine.cache` (memory + sharded, capacity-bounded on-disk
result store),
:mod:`~repro.engine.batch` (the engine), :mod:`~repro.engine.sweeps`
(job sources), :mod:`~repro.engine.bench` (the unified benchmark
harness behind ``python -m repro bench``), :mod:`~repro.engine.cli`
(the ``batch``/``bench`` commands and the flag helpers the other
engine-backed commands share).
"""

from repro.engine.algorithms import (
    ALGORITHMS,
    algorithm_ids,
    canonical_algorithm,
)
from repro.engine.batch import BatchEngine, execute_job
from repro.engine.cache import ResultCache
from repro.engine.job import GraphSpec, JobResult, JobSpec
from repro.engine.keys import CacheKeyResolver, cache_key_for
from repro.engine.sweeps import cross, random_dag_sweep, registry_sweep

__all__ = [
    "ALGORITHMS",
    "BatchEngine",
    "CacheKeyResolver",
    "GraphSpec",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "algorithm_ids",
    "cache_key_for",
    "canonical_algorithm",
    "cross",
    "execute_job",
    "random_dag_sweep",
    "registry_sweep",
]
