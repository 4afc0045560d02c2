"""The anytime improver: background jobs that tighten cached results.

An :class:`Improver` wraps one ``bnb-anytime`` search over a graph and
drives it in interruptible slices against a :class:`BatchEngine`:

1. **Seed** — the incumbent starts from the best resource-feasible
   schedule already known: the cached force-directed artifact for the
   same graph/resources when it validates under the constraint (FDS is
   time-constrained and may overbook units), else the engine's list
   schedules.
2. **Resume** — when the canonical cache entry already carries a
   search checkpoint (``artifact.meta.bnb.checkpoint``), the search
   continues from it instead of restarting; a proved entry means there
   is nothing left to do.
3. **Rewrite** — every incumbent improvement, proof, and the final
   budget-expiry state is written back through
   :meth:`BatchEngine.rewrite_result`, which replaces the cached entry
   only when the new result strictly out-ranks it and fans accepted
   improvements out to cluster peers.

The *canonical* entry an improver owns is the budget-free
``bnb-anytime`` key: budgeted requests get their own cache identity,
but every improver for the same graph/resources converges on one entry
that only ever gets better.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.engine.batch import BatchEngine
from repro.engine.job import JobSpec, JobResult, anytime_meta
from repro.engine.keys import CacheKeyResolver
from repro.errors import ConfigError, SchedulingError, check_duration
from repro.scheduling.base import artifact_start_times, schedule_artifact
from repro.scheduling.bnb import DEFAULT_SLICE_NODES, AnytimeBnB

#: Event types an improver forwards, in the order a consumer can rely
#: on: zero or more ``incumbent``/``bound`` events, then at most one
#: terminal ``optimal`` (proof) or ``exhausted`` (budget expired).
EVENT_TYPES = ("incumbent", "bound", "optimal", "exhausted")


class Improver:
    """One anytime improvement run over a graph's canonical entry.

    Construct, then call :meth:`run` (or drive :meth:`step` yourself
    for finer interleaving).  The improver is synchronous and owns no
    threads; the serving tier wraps it in a task, the CLI in a loop.
    """

    def __init__(
        self,
        engine: BatchEngine,
        graph,
        resources,
        slice_nodes: int = DEFAULT_SLICE_NODES,
    ):
        if slice_nodes < 1:
            raise ConfigError(f"slice_nodes must be >= 1, got {slice_nodes}")
        self.engine = engine
        self.spec = JobSpec.make(graph, resources, "bnb-anytime")
        self.slice_nodes = int(slice_nodes)
        resolver = CacheKeyResolver()
        self.graph_hash = resolver.graph_hash(self.spec.graph)
        self.key = self.spec.cache_key(self.graph_hash)
        self.dfg = self.spec.graph.build()
        self._input_ops = self.dfg.nodes()
        self.rewrites = 0
        self.resumed = False
        self._started = time.perf_counter()

        cached = engine.cache.get(self.key)
        checkpoint = None
        if cached is not None and cached.ok:
            meta = anytime_meta(cached)
            checkpoint = meta.get("checkpoint")
            self.resumed = checkpoint is not None
        seed_times = None
        if checkpoint is None:
            # An unproved entry without a checkpoint (computed by a
            # leaner engine) still carries its incumbent — better to
            # start from that than from scratch; fall back to the
            # cached FDS schedule.
            if cached is not None and cached.ok and cached.artifact:
                try:
                    seed_times = artifact_start_times(cached.artifact)
                except (KeyError, TypeError, ValueError):
                    seed_times = None
            if seed_times is None:
                seed_times = self._fds_seed(resolver)
        self.solver = AnytimeBnB(
            self.dfg,
            self.spec.resource_set(),
            seed_times=seed_times,
            checkpoint=checkpoint,
        )
        # A cached proof short-circuits the whole run: the canonical
        # entry cannot be improved.  Adopt it wholesale — times, proof
        # state, search-effort counter — so the terminal event and the
        # summary describe the proved optimum, not this process's
        # fresh seed.
        self.already_proved = (
            cached is not None
            and cached.ok
            and bool(anytime_meta(cached).get("proved"))
        )
        if self.already_proved:
            meta = anytime_meta(cached)
            self.solver.best_times = artifact_start_times(cached.artifact)
            self.solver.best_length = cached.length
            self.solver.lower_bound = cached.length
            self.solver.seed_length = int(
                meta.get("seed_length") or cached.length
            )
            self.solver.nodes_total = int(meta.get("nodes") or 0)
            self.solver.proved = True
            self.solver.done = True
            self.solver.phase = "done"
            self.solver.search = None

    # ------------------------------------------------------------------

    def _fds_seed(self, resolver: CacheKeyResolver) -> Optional[Dict[str, int]]:
        """Start times of the cached FDS artifact, when one exists.

        The solver validates the seed itself (an infeasible FDS
        schedule is discarded there), so this only has to find it.
        """
        fds_spec = JobSpec.make(
            self.spec.graph, self.spec.resources, "force-directed"
        )
        cached = self.engine.cache.get(fds_spec.cache_key(self.graph_hash))
        if cached is None or not cached.ok or cached.artifact is None:
            return None
        try:
            return artifact_start_times(cached.artifact)
        except (KeyError, TypeError, ValueError):
            return None

    def _result(self) -> JobResult:
        """The current best as a cache-entry-shaped result."""
        schedule = self.solver.best_schedule()
        artifact = schedule_artifact(schedule, input_ops=self._input_ops)
        return JobResult(
            key=self.key,
            graph=self.spec.graph.describe(),
            graph_hash=self.graph_hash,
            num_ops=self.dfg.num_nodes,
            resources=self.spec.resources,
            algorithm=self.spec.algorithm,
            length=schedule.length,
            runtime_s=time.perf_counter() - self._started,
            artifact=artifact,
        )

    def publish(self) -> bool:
        """Rewrite the canonical entry with the current best.

        Returns whether the engine accepted the rewrite (a concurrent
        improver or peer may already have stored something better).
        """
        accepted = self.engine.rewrite_result(self._result())
        if accepted:
            self.rewrites += 1
        return accepted

    # ------------------------------------------------------------------

    def step(self, max_nodes: Optional[int] = None) -> List[Dict[str, Any]]:
        """Advance one slice; publish and return any new events."""
        events = self.solver.advance(max_nodes or self.slice_nodes)
        if any(e["type"] in ("incumbent", "optimal") for e in events):
            self.publish()
        return events

    def run(
        self,
        nodes: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Drive the search until proof or budget expiry.

        ``nodes`` bounds *additional* node expansions this run (a
        resumed search's prior effort is not charged); ``deadline_ms``
        bounds wall clock.  Events stream through ``on_event`` as they
        happen — ``incumbent``/``bound`` improvements, then a terminal
        ``optimal`` or ``exhausted``.  Returns the run summary.
        """
        if nodes is not None and nodes < 1:
            raise SchedulingError(f"nodes must be >= 1, got {nodes}")
        if deadline_ms is not None:
            check_duration("deadline_ms", deadline_ms)
        emit = on_event or (lambda event: None)
        start_nodes = self.solver.nodes_total
        deadline = (
            time.monotonic() + deadline_ms / 1000.0 if deadline_ms else None
        )
        if self.already_proved:
            emit(self.solver.status_event("optimal"))
            return self.summary()
        if self.solver.done:
            # Proved during construction: the static bound already met
            # the seed, so there is no search to run — but the proof
            # still has to reach the cache and the event stream.
            self.publish()
            emit(self.solver.status_event("optimal"))
            return self.summary()
        while not self.solver.done:
            spent = self.solver.nodes_total - start_nodes
            if nodes is not None and spent >= nodes:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            step = self.slice_nodes
            if nodes is not None:
                step = min(step, nodes - spent)
            for event in self.step(step):
                emit(event)
        if not self.solver.done:
            # Budget expired: persist the checkpoint so the next run
            # resumes instead of restarting.  The engine accepts it
            # because more search strictly out-ranks less.
            self.publish()
            emit(self.solver.status_event("exhausted"))
        return self.summary()

    def summary(self) -> Dict[str, Any]:
        """JSON-safe run summary (the ``repro improve --json`` body)."""
        solver = self.solver
        return {
            "key": self.key,
            "graph": self.spec.graph.describe(),
            "resources": self.spec.resources,
            "algorithm": self.spec.algorithm,
            "length": solver.best_length,
            "lower_bound": solver.lower_bound,
            "proved": solver.proved,
            "nodes": solver.nodes_total,
            "seed_length": solver.seed_length,
            "improved": solver.best_length < solver.seed_length,
            "resumed": self.resumed,
            "rewrites": self.rewrites,
            "trajectory": [list(point) for point in solver.trajectory],
        }


def improve_once(
    engine: BatchEngine,
    graph,
    resources,
    nodes: Optional[int] = None,
    deadline_ms: Optional[int] = None,
    slice_nodes: int = DEFAULT_SLICE_NODES,
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """One improver run against ``engine``'s cache; returns the summary."""
    improver = Improver(engine, graph, resources, slice_nodes=slice_nodes)
    return improver.run(nodes=nodes, deadline_ms=deadline_ms, on_event=on_event)
