"""Feedback-stitched hierarchical scheduling.

The orchestrator scales the paper's schedulers past what one job can
hold: it cuts a large DFG into acyclic parts
(:func:`repro.ir.partition.partition_graph`), schedules every part as
an ordinary :class:`~repro.engine.job.JobSpec` — locally, through a
:class:`~repro.engine.batch.BatchEngine`, or against a running
``repro serve`` / ``repro dispatch`` target — and stitches the part
schedules back into one global schedule through per-op *window*
constraints on the boundary ops.

Round structure
---------------

**Seed round.**  Parts run in quotient-wavefront order (parts at equal
quotient depth fan out concurrently).  Each boundary-in op ``v`` is
pinned to ``(lo, asap(v) + slack)`` where ``lo`` is the finish time of
its latest cross-part producer and ``asap`` is the window-respecting
ASAP inside the part — so every subgraph job works in *global* time
and the union of part schedules is dependence-valid by construction.

**Refinement rounds.**  All parts fan out at once; every op ``v`` is
pinned to ``(cross_lo(v), prev_start(v))`` — the previous round's
solution is the feasibility witness.  Because the upper pin is the
previous start, a frame-respecting scheduler (force-directed) can only
move ops *earlier*, so the stitched length (and the gap to the
critical-path lower bound) is monotonically non-increasing.  List
schedulers treat the upper pin as advisory, so a regressing round is
discarded and iteration stops.  Iteration also stops when the gap
stalls or the round budget runs out.

The stitched schedule is re-validated from scratch: a full dependence
check (:func:`~repro.scheduling.base.validate_schedule`) plus a
frame-engine fixing sweep at the stitched length, the same consistency
oracle the threaded-schedule hardening path uses.

The per-op window mechanism here is the same one I/O-timing scenarios
lower onto (:func:`repro.engine.scenario.lower_scenario` turns
protocol pins into degenerate ``lo == hi`` windows), so subgraph jobs
fanned out to a serve/dispatch target carry their pins through the
ordinary ``windows`` request field — no scenario-specific plumbing.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.algorithms import (
    FDS_SLACK,
    canonical_algorithm,
    require_capability,
)
from repro.engine.batch import BatchEngine, execute_job
from repro.engine.job import GraphSpec, JobResult, JobSpec
from repro.errors import ConfigError, SchedulingError
from repro.ir.dfg import DataFlowGraph
from repro.ir.partition import (
    DEFAULT_MAX_OPS,
    DEFAULT_REFINE_PASSES,
    Partition,
    partition_graph,
)
from repro.scheduling.base import (
    Schedule,
    artifact_start_times,
    validate_schedule,
)
from repro.scheduling.frames import FrameEngine
from repro.scheduling.resources import ResourceSet

__all__ = [
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_SUBGRAPH_ALGORITHM",
    "EngineBackend",
    "HierOrchestrator",
    "HierResult",
    "LocalBackend",
    "ServeBackend",
    "hier_schedule",
]

#: Default feedback-round budget (seed round included).
DEFAULT_MAX_ROUNDS = 3

#: Default subgraph algorithm: frame-respecting, so boundary windows
#: bind it.
DEFAULT_SUBGRAPH_ALGORITHM = "force-directed"


# ----------------------------------------------------------------------
# Backends: how subgraph jobs get executed.
# ----------------------------------------------------------------------


class LocalBackend:
    """Run subgraph jobs sequentially in the current process.

    No cache and no pool — safe inside a ``BatchEngine`` worker (the
    ``hier-fds`` algorithm runs through this backend, so a hierarchical
    job never nests process pools).  Results carry empty cache keys.
    """

    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        return [
            execute_job(spec, "", "", capture_schedule=True)
            for spec in specs
        ]


class EngineBackend:
    """Run subgraph jobs through a :class:`BatchEngine`.

    The engine must capture schedules (``capture_schedules=True``) —
    the orchestrator stitches from artifacts, not lengths.
    """

    def __init__(self, engine: BatchEngine):
        if not engine.capture_schedules:
            raise SchedulingError(
                "hierarchical scheduling needs the full subgraph "
                "schedules; construct the BatchEngine with "
                "capture_schedules=True"
            )
        self.engine = engine

    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        return self.engine.submit(list(specs))


class ServeBackend:
    """Run subgraph jobs against a ``repro serve``/``dispatch`` target.

    ``target`` is ``host:port`` (or just a port).  Jobs in one fan-out
    wave are posted concurrently from a thread pool; the service's
    coalescer and result cache deduplicate across replicas.

    Transient target failures — connection refused/reset, timeouts,
    and retryable statuses (429, 502, 503, 504) — are retried under
    the unified :class:`repro.resilience.RetryPolicy` with jittered
    backoff before a :class:`SchedulingError` surfaces; a replica
    restart mid-run then costs latency, not the whole hierarchical
    schedule.
    """

    #: HTTP statuses worth a retry: overload shedding, failover
    #: exhaustion, drains, and deadline 504s — never 4xx contract
    #: errors, which repeat deterministically.
    RETRYABLE_STATUSES = (429, 502, 503, 504)

    def __init__(
        self,
        target: str,
        workers: int = 8,
        timeout: float = 300.0,
        retry: Optional["RetryPolicy"] = None,
    ):
        # Local import: repro.serve pulls in the HTTP stack, which the
        # in-process backends never need.
        from repro.serve.client import ServeClient
        from repro.resilience import RetryPolicy
        from repro.store.peers import parse_address

        host, port = parse_address(str(target))
        self.client = ServeClient(host=host, port=port, timeout=timeout)
        self.target = f"{host}:{port}"
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.retry = retry or RetryPolicy(
            max_attempts=3, base_s=0.2, max_backoff_s=2.0
        )

    def _post_with_retry(self, spec: JobSpec, graph):
        """One schedule exchange under the backend's retry policy."""
        attempt = 0
        while True:
            attempt += 1
            try:
                raw = self.client.schedule_raw(
                    graph,
                    resources=spec.resources,
                    algorithm=spec.algorithm,
                    artifacts=True,
                    windows=dict(spec.windows_dict()) or None,
                )
            except OSError as exc:
                # Refused/reset/timeout: surface the structured error
                # the CLI contract promises, not a socket traceback.
                if self.retry.allows(attempt + 1):
                    time.sleep(self.retry.backoff_s(attempt))
                    continue
                raise SchedulingError(
                    f"serve target {self.target} unreachable for "
                    f"subgraph job {spec.graph.describe()!r} after "
                    f"{attempt} attempt(s): {exc}"
                ) from None
            if (
                raw.status in self.RETRYABLE_STATUSES
                and self.retry.allows(attempt + 1)
            ):
                time.sleep(self.retry.backoff_s(attempt))
                continue
            return raw

    def _one(self, spec: JobSpec) -> JobResult:
        graph = (
            json.loads(spec.graph.payload)
            if spec.graph.source == "inline"
            else spec.graph.name
        )
        raw = self._post_with_retry(spec, graph)
        if raw.status != 200:
            try:
                message = raw.json().get("error", "")
            except ValueError:
                message = raw.body.decode("latin-1")
            raise SchedulingError(
                f"subgraph job {spec.graph.describe()!r} failed: "
                f"HTTP {raw.status}: {message}"
            )
        payload = raw.json()
        return JobResult(
            key=raw.headers.get("x-repro-key", payload.get("key", "")),
            graph=payload.get("graph", spec.graph.describe()),
            graph_hash=payload.get("graph_hash", ""),
            num_ops=int(payload.get("num_ops", 0)),
            resources=payload.get("resources", spec.resources),
            algorithm=payload.get("algorithm", spec.algorithm),
            length=int(payload.get("length", -1)),
            runtime_s=0.0,
            gap=payload.get("gap"),
            cached=raw.source != "computed",
            artifact=payload.get("artifact"),
            error=payload.get("error"),
        )

    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        if len(specs) == 1:
            return [self._one(specs[0])]
        with ThreadPoolExecutor(
            max_workers=min(self.workers, len(specs))
        ) as pool:
            return list(pool.map(self._one, specs))


# ----------------------------------------------------------------------
# Result record.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HierResult:
    """Outcome of one hierarchical scheduling run.

    ``gaps`` records the stitched-length excess over the full graph's
    critical-path lower bound after each round (never increasing in
    the kept rounds); ``keys`` are the distinct subgraph cache keys
    the backend reported (empty for the local backend, which does not
    cache) — the CI smoke compares their count against the cluster's
    fresh-compute counter.
    """

    schedule: Schedule
    partition: Partition = field(repr=False)
    gaps: Tuple[int, ...]
    keys: Tuple[str, ...] = field(repr=False)
    jobs: int = 0
    cached_jobs: int = 0

    @property
    def rounds(self) -> int:
        return len(self.gaps)

    @property
    def num_partitions(self) -> int:
        return self.partition.num_parts

    def __repr__(self):
        return (
            f"HierResult(length={self.schedule.length}, "
            f"rounds={self.rounds}, parts={self.num_partitions}, "
            f"gaps={list(self.gaps)})"
        )


# ----------------------------------------------------------------------
# The orchestrator.
# ----------------------------------------------------------------------


class HierOrchestrator:
    """Partition, fan out, stitch, iterate.

    Parameters
    ----------
    resources:
        Constraint for every subgraph job (notation string or
        :class:`ResourceSet`).
    algorithm:
        Subgraph scheduling algorithm; must have the ``windows``
        capability (see :data:`~repro.engine.algorithms.ALGORITHMS`).
    max_ops / num_parts / refine_passes:
        Forwarded to :func:`~repro.ir.partition.partition_graph`.
    max_rounds:
        Total round budget including the seed round (>= 1).
    slack:
        Extra steps granted above the windowed ASAP for seed-round
        boundary pins; more slack widens the frames the subgraph
        scheduler may exploit.
    backend:
        A :class:`LocalBackend` (default), :class:`EngineBackend`, or
        :class:`ServeBackend`.
    """

    def __init__(
        self,
        resources,
        algorithm: str = DEFAULT_SUBGRAPH_ALGORITHM,
        max_ops: int = DEFAULT_MAX_OPS,
        num_parts: Optional[int] = None,
        refine_passes: int = DEFAULT_REFINE_PASSES,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        slack: int = FDS_SLACK,
        backend=None,
    ):
        if isinstance(resources, ResourceSet):
            self.resources = resources.notation()
        else:
            self.resources = ResourceSet.parse(resources).notation()
        self.algorithm = canonical_algorithm(algorithm)
        require_capability(
            self.algorithm,
            "windows",
            "hierarchical scheduling needs a window-capable subgraph "
            "algorithm, not {algorithm!r}; choose one of: {known}",
        )
        if max_rounds < 1:
            raise SchedulingError(
                f"max_rounds must be >= 1, got {max_rounds}"
            )
        if slack < 0:
            raise SchedulingError(f"slack must be >= 0, got {slack}")
        self.max_ops = max_ops
        self.num_parts = num_parts
        self.refine_passes = refine_passes
        self.max_rounds = max_rounds
        self.slack = slack
        self.backend = backend if backend is not None else LocalBackend()

    # ------------------------------------------------------------------

    def run(self, dfg: DataFlowGraph) -> HierResult:
        """Schedule ``dfg`` hierarchically; validated stitched result."""
        partition = partition_graph(
            dfg,
            num_parts=self.num_parts,
            max_ops=self.max_ops,
            refine_passes=self.refine_passes,
        )
        subs = partition.subgraphs()
        graph_specs = [GraphSpec.inline(sub) for sub in subs]
        lower_bound = dfg.view().diameter()

        keys: set = set()
        jobs = 0
        cached_jobs = 0

        def dispatch(
            wave: List[Tuple[int, Dict[str, Tuple[int, int]]]]
        ) -> Dict[int, Dict[str, int]]:
            """Run one fan-out wave; part index -> global start times."""
            nonlocal jobs, cached_jobs
            specs = [
                JobSpec.make(
                    graph_specs[k],
                    self.resources,
                    self.algorithm,
                    windows=windows or None,
                )
                for k, windows in wave
            ]
            results = self.backend.run(specs)
            starts_by_part: Dict[int, Dict[str, int]] = {}
            for (k, _), result in zip(wave, results):
                jobs += 1
                if result is None or not result.ok:
                    detail = "no result" if result is None else result.error
                    raise SchedulingError(
                        f"subgraph job for part {k} failed: {detail}"
                    )
                if result.artifact is None:
                    raise SchedulingError(
                        f"subgraph job for part {k} returned no "
                        f"schedule artifact; the backend must capture "
                        f"schedules"
                    )
                if result.cached:
                    cached_jobs += 1
                if result.key:
                    keys.add(result.key)
                starts_by_part[k] = artifact_start_times(result.artifact)
            return starts_by_part

        starts = self._seed_round(dfg, partition, subs, dispatch)
        gaps = [self._length(dfg, starts) - lower_bound]

        while len(gaps) < self.max_rounds:
            new_starts = self._refine_round(
                dfg, partition, subs, starts, dispatch
            )
            new_gap = self._length(dfg, new_starts) - lower_bound
            if new_gap > gaps[-1]:
                # A list scheduler treated the upper pins as advisory
                # and regressed; keep the previous solution.
                break
            stalled = new_gap == gaps[-1]
            starts = new_starts
            gaps.append(new_gap)
            if stalled:
                break

        schedule = Schedule(
            dfg=dfg,
            start_times={n: starts[n] for n in dfg.nodes()},
            resources=None,
            algorithm=(
                "hier-fds"
                if self.algorithm == "force-directed"
                else f"hier({self.algorithm})"
            ),
            meta={
                "hier_rounds": len(gaps),
                "hier_partitions": partition.num_parts,
                "hier_gaps": list(gaps),
            },
        )
        self._validate(schedule)
        return HierResult(
            schedule=schedule,
            partition=partition,
            gaps=tuple(gaps),
            keys=tuple(sorted(keys)),
            jobs=jobs,
            cached_jobs=cached_jobs,
        )

    # ------------------------------------------------------------------
    # Rounds.

    def _seed_round(self, dfg, partition, subs, dispatch):
        """Wavefront over the quotient DAG, pinning boundary-in ops."""
        depth = partition.quotient_depth()
        waves: Dict[int, List[int]] = {}
        for k in range(partition.num_parts):
            waves.setdefault(depth[k], []).append(k)
        inbound: Dict[int, List] = {}
        for edge in partition.boundary:
            inbound.setdefault(edge.dst_part, []).append(edge)

        starts: Dict[str, int] = {}
        for d in sorted(waves):
            wave = []
            for k in waves[d]:
                lo_pins: Dict[str, int] = {}
                for edge in inbound.get(k, ()):
                    release = (
                        starts[edge.src]
                        + dfg.delay(edge.src)
                        + edge.weight
                    )
                    if release > lo_pins.get(edge.dst, -1):
                        lo_pins[edge.dst] = release
                wave.append((k, self._seed_windows(subs[k], lo_pins)))
            for part_starts in dispatch(wave).values():
                starts.update(part_starts)
        return starts

    def _seed_windows(self, sub, lo_pins):
        """Seed pins: ``(release, windowed_asap + slack)`` per pinned op.

        The windowed ASAP (releases propagated forward through the
        part) is itself a feasible start for every op, so the pins can
        never make the subgraph job infeasible, while keeping the
        frame upper bounds — and with them the force-directed latency
        bound — tight.
        """
        if not lo_pins:
            return {}
        view = sub.view()
        delays = view.delays
        ids = view.ids
        asap = [0] * view.num_nodes
        pred_off, pred_src, pred_w = view.pred_off, view.pred_src, view.pred_w
        for u in view.topo_indices():
            best = lo_pins.get(ids[u], 0)
            for k in range(pred_off[u], pred_off[u + 1]):
                p = pred_src[k]
                reach = asap[p] + delays[p] + pred_w[k]
                if reach > best:
                    best = reach
            asap[u] = best
        index = view.index
        return {
            op: (lo, asap[index[op]] + self.slack)
            for op, lo in lo_pins.items()
        }

    def _refine_round(self, dfg, partition, subs, prev, dispatch):
        """All parts at once; every op pinned to ``(cross_lo, prev)``.

        ``cross_lo`` uses the *previous* starts of cross-part
        producers, which the upper pins only ever move earlier — so
        every cross dependence stays satisfied no matter how the parts
        shift, without any cross-part communication inside the round.
        """
        cross_lo: Dict[str, int] = {}
        for edge in partition.boundary:
            release = prev[edge.src] + dfg.delay(edge.src) + edge.weight
            if release > cross_lo.get(edge.dst, -1):
                cross_lo[edge.dst] = release
        wave = []
        for k, sub in enumerate(subs):
            windows = {
                op: (cross_lo.get(op, 0), prev[op]) for op in sub.nodes()
            }
            wave.append((k, windows))
        merged: Dict[str, int] = {}
        for part_starts in dispatch(wave).values():
            merged.update(part_starts)
        return merged

    # ------------------------------------------------------------------
    # Stitch checking.

    @staticmethod
    def _length(dfg, starts):
        return max(starts[n] + dfg.delay(n) for n in starts) if starts else 0

    @staticmethod
    def _validate(schedule: Schedule) -> None:
        """Full-schedule consistency oracle for the stitched result.

        The dependence/start checks of :func:`validate_schedule`
        (bindings and global resource usage don't apply — parts are
        scheduled time-constrained), then a frame-engine fixing sweep
        at the stitched length: fixing every op at its stitched start
        in topological order surfaces any latent inconsistency as an
        infeasible frame, exactly like the hardening validator.
        """
        validate_schedule(schedule, check_binding=False)
        engine = FrameEngine(schedule.dfg, latency=schedule.length)
        for node_id in schedule.dfg.view().topological_ids():
            engine.fix(node_id, schedule.start_times[node_id])


def hier_schedule(
    dfg: DataFlowGraph,
    resources,
    algorithm: str = DEFAULT_SUBGRAPH_ALGORITHM,
    max_ops: int = DEFAULT_MAX_OPS,
    num_parts: Optional[int] = None,
    refine_passes: int = DEFAULT_REFINE_PASSES,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    slack: int = FDS_SLACK,
    backend=None,
    target: Optional[str] = None,
    engine: Optional[BatchEngine] = None,
    workers: int = 8,
) -> HierResult:
    """One-call hierarchical scheduling.

    Picks the backend from the arguments: an explicit ``backend`` wins;
    ``target`` (``host:port``) selects :class:`ServeBackend`;
    ``engine`` selects :class:`EngineBackend`; otherwise subgraph jobs
    run locally in-process.
    """
    if backend is None:
        if target is not None:
            backend = ServeBackend(target, workers=workers)
        elif engine is not None:
            backend = EngineBackend(engine)
    orchestrator = HierOrchestrator(
        resources,
        algorithm=algorithm,
        max_ops=max_ops,
        num_parts=num_parts,
        refine_passes=refine_passes,
        max_rounds=max_rounds,
        slack=slack,
        backend=backend,
    )
    return orchestrator.run(dfg)
