"""Multi-replica job dispatching for the scheduling service.

``repro dispatch`` fronts N ``repro serve`` replicas with a
consistent-hash router: every ``POST /schedule`` body is validated at
the edge, keyed by its engine cache key, and proxied to the replica
that owns that key on the ring — so duplicate-heavy soft-scheduling
traffic keeps hitting the replica whose sharded result store already
holds it, and a unique job is computed once *cluster-wide*.

Quickstart::

    repro serve --port 8081 &
    repro serve --port 8082 &
    repro dispatch --port 8080 \
        --replica 127.0.0.1:8081 --replica 127.0.0.1:8082

Clients speak to the router exactly as they would to a single replica
(same endpoints, same response bytes); replica failures fail over along
the ring and a background health loop flips membership.

Modules: :mod:`~repro.dispatch.ring` (the consistent-hash ring),
:mod:`~repro.dispatch.router` (the asyncio router),
:mod:`~repro.dispatch.proxy` (router→replica HTTP exchanges),
:mod:`~repro.dispatch.metrics` (router counters),
:mod:`~repro.dispatch.testing` (the :class:`ReplicaSet` subprocess
harness behind the tests and the CI ``dispatch-smoke`` job).
"""

from repro.dispatch.metrics import DispatchMetrics
from repro.dispatch.ring import DEFAULT_VNODES, HashRing
from repro.dispatch.router import DispatchRouter, run_router
from repro.dispatch.testing import ReplicaProcess, ReplicaSet

__all__ = [
    "DEFAULT_VNODES",
    "DispatchMetrics",
    "DispatchRouter",
    "HashRing",
    "ReplicaProcess",
    "ReplicaSet",
    "run_router",
]
