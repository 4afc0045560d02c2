"""Job-source helpers: turn sweep descriptions into JobSpec lists.

A sweep is the cross product of graphs × resource constraints ×
algorithms.  Graphs come from the benchmark registry or from seeded
random-DAG families, so every sweep is fully deterministic: re-running
the same sweep description yields the same specs, hence (via the
content-addressed cache) the same cache keys and results.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from repro.engine.algorithms import DEFAULT_ALGORITHM
from repro.engine.job import GraphSpec, JobSpec
from repro.errors import ConfigError
from repro.graphs.registry import graph_names
from repro.scheduling.resources import DEFAULT_RESOURCES

DEFAULT_CONSTRAINTS: Sequence[str] = (DEFAULT_RESOURCES,)
DEFAULT_ALGORITHMS: Sequence[str] = (DEFAULT_ALGORITHM,)
DEFAULT_BASE_SEED = 0


def cross(
    graphs: Iterable[GraphSpec],
    constraints: Sequence[str] = DEFAULT_CONSTRAINTS,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
) -> List[JobSpec]:
    """The full cross product, ordered graph-major for readable output."""
    return [
        JobSpec.make(graph, constraint, algorithm)
        for graph in graphs
        for constraint in constraints
        for algorithm in algorithms
    ]


def registry_sweep(
    names: Optional[Sequence[str]] = None,
    constraints: Sequence[str] = DEFAULT_CONSTRAINTS,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    paper_only: bool = False,
) -> List[JobSpec]:
    """Jobs over registered benchmarks (all of them by default)."""
    if names is None:
        names = graph_names(paper_only=paper_only)
    graphs = [GraphSpec.registry(name) for name in names]
    return cross(graphs, constraints, algorithms)


def random_dag_sweep(
    sizes: Sequence[int],
    count: int = 1,
    base_seed: int = DEFAULT_BASE_SEED,
    family: str = "layered",
    constraints: Sequence[str] = DEFAULT_CONSTRAINTS,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    **params: Any,
) -> List[JobSpec]:
    """Jobs over a seeded random-DAG family.

    ``count`` graphs per size; seeds run ``base_seed``, ``base_seed+1``,
    ... consecutively across the whole family, so the sweep is one
    deterministic population and two sweeps with different ``base_seed``
    never collide in the cache.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    graphs: List[GraphSpec] = []
    seed = base_seed
    for size in sizes:
        if size < 1:
            raise ConfigError(f"sizes must be >= 1, got {size}")
        for _ in range(count):
            graphs.append(
                GraphSpec.random(
                    family, num_nodes=size, seed=seed, **params
                )
            )
            seed += 1
    return cross(graphs, constraints, algorithms)
