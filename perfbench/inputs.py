"""Seeded inputs for each workload: the same seed gives the same inputs.

The program only ever sees what these functions return: job specs for
the in-process engine and request bodies for the HTTP services.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from typing import Dict, List, Tuple

from checks import GraphFacts

from repro.engine.job import GraphSpec, JobSpec
from repro.graphs.random_dags import (
    random_expression_dag,
    random_hier_dag,
    random_layered_dag,
)
from repro.ir.serialize import dfg_to_dict

#: Tight, the paper's and a loose resource set, with the unit counts the
#: checks hold list and threaded bindings to.
RESOURCE_SETS: Dict[str, Dict[str, int]] = {
    "1+/-,1*": {"alu": 1, "mul": 1},
    "2+/-,2*": {"alu": 2, "mul": 2},
    "4+/-,3*": {"alu": 4, "mul": 3},
}
PAPER_RESOURCES = "2+/-,2*"

KERNEL_ALGORITHMS = (
    "force-directed",
    "threaded(meta2)",
    "threaded(meta4)",
    "list(critical-path)",
    "list(ready)",
)

#: Generator family -> (factory, its default share of multiplications).
FAMILIES = {
    "layered": (random_layered_dag, 0.4),
    "expression": (random_expression_dag, 0.4),
    "hier": (random_hier_dag, 0.35),
}

# sweep_cold: one graph per family and size, each scheduled by every
# algorithm under a rotating resource set.
SWEEP_SIZES = (240, 180, 120, 60)

# Traffic-mix constants below (the artifacts share, the 1 miss : 4 hits
# repeat count, the repeat window and the key rate) are unverified
# assumptions: no measured or published figure backs them.  They fix
# what the serve workloads measure, so change them only together with
# the recorded figures in README.md, never to tune a result.

# serve_hot: registry graphs plus inline random DAGs, every algorithm.
HOT_REGISTRY = ("FIR", "AR", "EF", "DCT8")
HOT_INLINE_OPS = (24, 28, 32, 40, 44, 48)
HOT_ARTIFACT_SHARE = 0.3
HOT_SEQUENCE = 600

# routed_mixed: small inline DAGs, each sent once as a miss and then
# ROUTED_REPEATS more times as hits.
ROUTED_ALGORITHMS = (
    "list(ready)",
    "list(critical-path)",
    "threaded(meta2)",
    "threaded(meta4)",
)
ROUTED_OPS = (16, 32)
ROUTED_REPEATS = 4
ROUTED_REPEAT_WINDOW = 0.05
ROUTED_KEYS_PER_SECOND = 28


def _count_muls(dfg) -> int:
    return sum(1 for node in dfg.nodes() if dfg.node(node).op.name == "MUL")


def _depth(dfg) -> int:
    return GraphFacts(dfg).critical_path


@lru_cache(maxsize=None)
def _median_depth(family: str, size: int) -> int:
    factory = FAMILIES[family][0]
    return sorted(_depth(factory(size, seed=s)) for s in range(9))[4]


def typical_seed(rng: random.Random, family: str, size: int) -> int:
    """A seeded graph whose op mix and depth are typical for its family
    and size: multiplications within one of the family's share, and the
    critical path equal to the median of nine reference graphs.

    Only the structure then varies with the seed, so the work per round
    and the summed schedule lengths barely move between seeds.
    """
    factory, share = FAMILIES[family]
    while True:
        seed = rng.randrange(1 << 30)
        dfg = factory(size, seed=seed)
        if (abs(_count_muls(dfg) - round(share * size)) <= 1
                and _depth(dfg) == _median_depth(family, size)):
            return seed


def sweep_jobs(seed: int) -> List[JobSpec]:
    """60 cold jobs, largest graphs first so the pool drains evenly."""
    rng = random.Random(seed)
    jobs = []
    for size_index, size in enumerate(SWEEP_SIZES):
        for family_index, family in enumerate(FAMILIES):
            graph = GraphSpec.random(
                family, num_nodes=size,
                seed=typical_seed(rng, family, size),
            )
            for alg_index, algorithm in enumerate(KERNEL_ALGORITHMS):
                resources = list(RESOURCE_SETS)[
                    (size_index + family_index + alg_index) % 3
                ]
                jobs.append(JobSpec.make(graph, resources, algorithm))
    return jobs


def _body(graph, algorithm: str, artifacts: bool = False) -> bytes:
    payload = {
        "graph": graph,
        "resources": PAPER_RESOURCES,
        "algorithm": algorithm,
    }
    if artifacts:
        payload["artifacts"] = True
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _inline_graph(rng: random.Random, size: int, typical: bool):
    family = rng.choice(("layered", "expression"))
    factory = FAMILIES[family][0]
    if typical:
        return factory(size, seed=typical_seed(rng, family, size))
    return factory(size, seed=rng.randrange(1 << 30))


def _signature(dfg) -> Tuple:
    """Structure of a graph, to keep generated keys distinct."""
    return (
        tuple((node, dfg.node(node).op.name) for node in dfg.nodes()),
        tuple(sorted((e.src, e.dst, e.weight) for e in dfg.edges())),
    )


def serve_hot(seed: int) -> Tuple[List[bytes], List[int]]:
    """Distinct request bodies, and a request sequence over them.

    Each key (graph x algorithm) is asked for with and without the
    ``artifacts`` flag; the sequence draws keys uniformly and asks for
    artifacts on a seeded share of requests.
    """
    rng = random.Random(seed)
    graphs: List = list(HOT_REGISTRY)
    graphs += [
        dfg_to_dict(_inline_graph(rng, size, typical=True))
        for size in HOT_INLINE_OPS
    ]
    bodies, index = [], {}
    sequence = []
    keys = [(g, a) for g in range(len(graphs)) for a in KERNEL_ALGORITHMS]
    for _ in range(HOT_SEQUENCE):
        graph, algorithm = rng.choice(keys)
        artifacts = rng.random() < HOT_ARTIFACT_SHARE
        ident = (graph, algorithm, artifacts)
        if ident not in index:
            index[ident] = len(bodies)
            bodies.append(_body(graphs[graph], algorithm, artifacts))
        sequence.append(index[ident])
    return bodies, sequence


def routed_mixed(seed: int, seconds: int) -> Tuple[List[bytes], List[int]]:
    """Unique bodies, and a stream in which each arrives once as a miss
    and then ``ROUTED_REPEATS`` times as a hit, spread over the stream.
    """
    rng = random.Random(seed)
    count = ROUTED_KEYS_PER_SECOND * seconds
    bodies, seen = [], set()
    while len(bodies) < count:
        dfg = _inline_graph(rng, rng.randint(*ROUTED_OPS), typical=False)
        signature = _signature(dfg)
        if signature in seen:
            continue
        seen.add(signature)
        bodies.append(_body(dfg_to_dict(dfg), rng.choice(ROUTED_ALGORITHMS)))
    # Key k first arrives near position k/count; its repeats follow
    # within the next ROUTED_REPEAT_WINDOW of the stream, so the miss
    # share holds steady along all but the stream's two ends.
    slots = []
    for key in range(count):
        first = key / count
        slots.append((first, key))
        for _ in range(ROUTED_REPEATS):
            slots.append(
                (first + rng.uniform(0.0, ROUTED_REPEAT_WINDOW), key)
            )
    slots.sort()
    return bodies, [key for _, key in slots]
