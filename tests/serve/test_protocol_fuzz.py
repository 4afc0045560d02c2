"""Type-swap fuzz over ``POST /schedule`` bodies.

Six valid inline-HAL bodies (plain, windows, memory scenario, anytime
budget, reliability, ``io_schedule``) each get one node of their JSON
tree swapped for a wrong-typed or out-of-range value.  Every mutated
body must end as a :class:`ProtocolError` (a 400) or as a spec whose
engine run returns a :class:`JobResult` (possibly with ``error`` set).
Any other exception is an escape the service would answer with a 500.

Numbers are drawn only above the bounds or of the wrong type: a legal
but huge window on FDS is slow by design, like a huge legal delay.
"""

import copy
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.batch import execute_job
from repro.engine.job import JobResult
from repro.graphs.registry import get_graph
from repro.ir.dfg import MAX_STEPS
from repro.ir.serialize import dfg_to_dict
from repro.serve.protocol import ProtocolError, parse_request

HAL = dfg_to_dict(get_graph("HAL"))
HAL["edges"][0]["weight"] = 1

TEMPLATES = {
    "plain": {"graph": HAL, "resources": "2+/-,2*", "algorithm": "list"},
    "windows": {
        "graph": HAL,
        "algorithm": "fds",
        "windows": {"m1": [0, 4], "a1": [1, 6]},
    },
    "memory": {
        "graph": HAL,
        "algorithm": "list",
        "scenario": {"mode": "memory", "banks": 2, "ports": 1},
    },
    "budget": {
        "graph": HAL,
        "algorithm": "bnb-anytime",
        "budget": {"nodes": 2000, "deadline_ms": 5000},
    },
    "reliability": {
        "graph": HAL,
        "algorithm": "list",
        "scenario": {"mode": "reliability", "ops": ["m1", "a1"]},
    },
    "io_schedule": {
        "graph": HAL,
        "algorithm": "list(ready)",
        "io_schedule": {"m1": 0, "a1": 3},
    },
}

#: Replacement values: wrong types, or numbers past every bound.
WRONG = st.sampled_from(
    [
        None,
        True,
        False,
        -1,
        MAX_STEPS + 1,
        10**30,
        1.5,
        float("nan"),
        "",
        "ab",
        "abc",
        [],
        [1],
        ["abc"],
        [0, 10**30],
        {},
        {"a": 1},
    ]
)


def _paths(tree, prefix=()):
    """Every path below the root: each container and each leaf."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _swap(template, path, value):
    body = copy.deepcopy(TEMPLATES[template])
    node = body
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return body


@st.composite
def swapped_bodies(draw):
    template = draw(st.sampled_from(sorted(TEMPLATES)))
    path = draw(st.sampled_from(list(_paths(TEMPLATES[template]))))
    return _swap(template, path, draw(WRONG))


def _outcome(body):
    """``"400"`` or the engine's result for one body; anything else
    raised propagates and fails the test."""
    try:
        request = parse_request(json.dumps(body).encode("utf-8"))
    except ProtocolError as exc:
        assert exc.status == 400
        return "400"
    result = execute_job(
        request.spec,
        "key",
        "hash",
        compute_gap=True,
        capture_schedule=True,
    )
    assert isinstance(result, JobResult)
    return result


def test_templates_schedule_cleanly():
    for name, body in TEMPLATES.items():
        result = _outcome(body)
        assert result != "400", name
        assert result.ok, (name, result.error)


IO_SCENARIO = dict(TEMPLATES["io_schedule"])
del IO_SCENARIO["io_schedule"]

#: Bodies that once escaped parse_request, overflowed in the engine,
#: or answered a 10**30-step schedule.
ESCAPES = [
    _swap("io_schedule", ("io_schedule", "m1"), 10**30),
    _swap("memory", ("scenario", "banks"), 10**30),
    _swap("windows", ("windows", "m1"), [0, 10**30]),
    _swap("plain", ("resources",), "1000000+/-,2*"),
    {**IO_SCENARIO, "scenario": {"mode": "io", "pins": "ab"}},
    {**IO_SCENARIO, "scenario": {"mode": "io", "pins": ["abc"]}},
    {**IO_SCENARIO, "scenario": {"mode": "io", "pins": [1]}},
]


def _pin_escapes(test):
    for body in ESCAPES:
        test = example(body)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(swapped_bodies())
@_pin_escapes
def test_swapped_body_is_a_400_or_a_result(body):
    _outcome(body)


def test_pinned_escapes_are_400s():
    for body in ESCAPES:
        assert _outcome(body) == "400", body
