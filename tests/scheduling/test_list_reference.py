"""The slot-heap list scheduler equals the full-rescan reference.

:func:`list_schedule` keeps ready operations in per-unit-type heaps;
``list_reference.reference_list_schedule`` is the step loop it
replaced, which rescans and re-sorts the whole ready pool each step.
Both must give the same start times and bindings, in the same insertion
order (schedule artifacts serialize ``start_times`` in that order),
across graph families, every priority, flat and banked resource sets,
release windows, structural ops and zero-delay ops.  The digest test
pins the sweep-size schedules to the values the reference produced.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from list_reference import reference_list_schedule
from repro.errors import InfeasibleError
from repro.graphs import get_graph
from repro.graphs.random_dags import (
    random_expression_dag,
    random_hier_dag,
    random_layered_dag,
)
from repro.graphs.scenario import mem_traffic
from repro.ir.ops import OpKind
from repro.scheduling import ListPriority, ResourceSet, list_schedule

FAMILIES = {
    "layered": random_layered_dag,
    "expression": random_expression_dag,
    "hier": random_hier_dag,
}
FLAT_SETS = ("1+/-,1*", "2+/-,2*", "4+/-,3*")
BANKED_SET = "2+/-,2*,2mem[2x1]"
STRUCTURAL = (OpKind.WIRE, OpKind.CONST, OpKind.NOP)


def assert_same_schedule(dfg, resources, priority, windows=None):
    try:
        expected = reference_list_schedule(
            dfg, resources, priority, windows=windows
        )
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            list_schedule(dfg, resources, priority, windows=windows)
        return
    got = list_schedule(dfg, resources, priority, windows=windows)
    assert list(got.start_times.items()) == list(
        expected.start_times.items()
    )
    assert list(got.binding.items()) == list(expected.binding.items())
    assert got.algorithm == expected.algorithm


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    size=st.integers(min_value=1, max_value=40),
    seed=st.integers(0, 10_000),
    priority=st.sampled_from(list(ListPriority)),
    resources=st.sampled_from(FLAT_SETS + (BANKED_SET,)),
    structural_share=st.sampled_from((0.0, 0.1, 0.3)),
    zero_share=st.sampled_from((0.0, 0.1, 0.3)),
    weighted=st.booleans(),
    windowed=st.booleans(),
)
def test_slot_heaps_match_reference(
    family, size, seed, priority, resources, structural_share,
    zero_share, weighted, windowed,
):
    rng = random.Random(seed)
    dfg = FAMILIES[family](size, seed=seed)
    banked = resources == BANKED_SET
    for node_id in dfg.nodes():
        node = dfg.node(node_id)
        roll = rng.random()
        if roll < structural_share:
            node.op = rng.choice(STRUCTURAL)
            node.delay = rng.choice((0, 1, 2))
        elif banked and roll < structural_share + 0.25:
            node.op = rng.choice((OpKind.LOAD, OpKind.STORE))
            node.delay = rng.choice((0, 1, 2))
            if rng.random() < 0.5:
                node.name = f"buf @bank{rng.randrange(3)}"
        elif rng.random() < zero_share:
            node.delay = 0
    if weighted:
        for edge in dfg.edges():
            edge.weight = rng.choice((0, 0, 1, 3))
    windows = None
    if windowed:
        picked = rng.sample(dfg.nodes(), rng.randrange(dfg.num_nodes + 1))
        windows = {}
        for node_id in picked:
            lo = rng.randrange(0, 30)
            windows[node_id] = (lo, lo + rng.randrange(0, 10))
    assert_same_schedule(
        dfg, ResourceSet.parse(resources), priority, windows
    )


@pytest.mark.parametrize("priority", list(ListPriority))
@pytest.mark.parametrize("name", ["HAL", "AR", "EF", "FIR", "DCT8"])
def test_registry_graphs_match_reference(name, priority):
    for notation in FLAT_SETS:
        assert_same_schedule(
            get_graph(name), ResourceSet.parse(notation), priority
        )


@pytest.mark.parametrize("priority", list(ListPriority))
@pytest.mark.parametrize("notation", ["2+/-,2*,2mem[2x1]",
                                      "2+/-,1*,4mem[2x2]"])
def test_banked_memory_matches_reference(notation, priority):
    assert_same_schedule(mem_traffic(6), ResourceSet.parse(notation), priority)


#: Start-time and binding digests of the list schedules at sweep sizes,
#: one per graph over the three sweep resource sets and all three
#: priorities, captured from the full-rescan scheduler.
SWEEP_DIGESTS = [
    ("layered", 60, "1af1e55432d4f86e"),
    ("layered", 120, "352ee27f0bfede7c"),
    ("layered", 240, "2bdcb22ed07d74c0"),
    ("expression", 60, "4a60a850f6f4f470"),
    ("expression", 120, "f9f88202f48400cb"),
    ("expression", 240, "caf428057f3efb02"),
    ("hier", 60, "3600de0fcc54e767"),
    ("hier", 120, "589aa4a5acf7bc15"),
    ("hier", 240, "30529b9dc10dcfdc"),
]


@pytest.mark.parametrize("family,size,digest", SWEEP_DIGESTS)
def test_sweep_size_schedules_pinned(family, size, digest):
    dfg = FAMILIES[family](size, seed=1)
    h = hashlib.sha256()
    for notation in FLAT_SETS:
        for priority in ListPriority:
            schedule = list_schedule(
                dfg, ResourceSet.parse(notation), priority
            )
            h.update(json.dumps(sorted(schedule.start_times.items())).encode())
            h.update(
                json.dumps(
                    sorted(
                        (op, unit[0].name, unit[1])
                        for op, unit in schedule.binding.items()
                    )
                ).encode()
            )
    assert h.hexdigest()[:16] == digest
