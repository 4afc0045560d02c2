"""Run the doctests embedded in public docstrings."""

import doctest

import pytest

import repro.metrics
import repro.ir.ops
import repro.ir.builder
import repro.ir.partition
import repro.hier
import repro.scheduling.resources
import repro.core.scheduler
import repro.engine.cache
import repro.engine.keys
import repro.dispatch.ring
import repro.dispatch.router
import repro.serve.coalescer
import repro.serve.http
import repro.serve.client
import repro.store.cluster
import repro.store.peers

MODULES = [
    repro.metrics,
    repro.ir.ops,
    repro.ir.builder,
    repro.ir.partition,
    repro.hier,
    repro.scheduling.resources,
    repro.core.scheduler,
    repro.engine.cache,
    repro.engine.keys,
    repro.dispatch.ring,
    repro.dispatch.router,
    repro.serve.coalescer,
    repro.serve.http,
    repro.serve.client,
    repro.store.cluster,
    repro.store.peers,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda m: m.__name__
)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0, f"{module.__name__}: {result.failed} failed"
    assert result.attempted > 0, f"{module.__name__} has no doctests"
