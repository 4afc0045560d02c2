"""The batch engine: many scheduling jobs, one call.

:class:`BatchEngine` takes an iterable of :class:`JobSpec` and returns
one :class:`JobResult` per job, in submission order.  Under the hood it

1. builds each job's graph once to obtain its content hash (specs that
   repeat a graph share the build via a per-engine memo),
2. resolves jobs against a :class:`~repro.engine.cache.ResultCache`
   (memory + optional sharded on-disk JSON store) — one lookup per
   unique key — and deduplicates identical jobs within the batch,
3. asks the cache's cluster tier (``fetch_missing``; see
   :class:`repro.store.ClusterStore`) for the still-missing keys
   *outside* the submission lock, so slow peers never stall
   concurrent batches,
4. executes the remaining unique jobs either serially or across a
   ``ProcessPoolExecutor``, and
5. stores fresh results back into the cache.

Every write into the store — a fresh compute, a peer-fetched entry,
a peer publish (:meth:`BatchEngine.install_result`) and an improver
rewrite (:meth:`BatchEngine.rewrite_result`) — passes one admission
point, ``BatchEngine._admit``: it ranks the incoming result against
the entry already held and writes nothing when the held entry wins.

The pool uses the ``fork`` start method where the platform offers it:
``spawn``/``forkserver`` re-import the parent's ``__main__``, which
breaks engine use from a REPL, a ``python - <<EOF`` heredoc, or any
other unimportable main module.

Determinism: a job's entire randomness budget lives in its spec (random
DAG seeds, seeded meta schedules), so serial and parallel execution
produce identical schedule lengths — only wall-times differ.

Long-lived callers (the async serving front end in :mod:`repro.serve`)
use the submission API instead of one-shot :meth:`BatchEngine.run`:
:meth:`BatchEngine.start` keeps one worker pool alive across calls, and
:meth:`BatchEngine.submit` is safe to invoke from concurrent threads —
cache resolution serializes on an internal lock while the compute phase
overlaps across batches.  :meth:`BatchEngine.memory_hit` answers a
memory-tier hit without waiting for that lock, so an event loop can
serve hits itself and submit only the misses.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from copy import deepcopy
from dataclasses import replace
from multiprocessing import get_context
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro import faultlab, metrics
from repro.engine.algorithms import ALGORITHMS, capable, require_capability
from repro.engine.cache import ResultCache
from repro.engine.job import (
    GraphSpec,
    JobResult,
    JobSpec,
    improves_result,
    validated_windows,
)
from repro.engine.keys import FINGERPRINT_MEMO_LIMIT, CacheKeyResolver
from repro.engine.scenario import lower_scenario
from repro.errors import ConfigError, SchedulingError
from repro.scheduling.base import schedule_artifact

#: Graphs at or below this many ops get a proved-optimum comparison
#: when the engine is constructed with ``compute_gaps=True``.
DEFAULT_GAP_OPS_LIMIT = 12

#: Worker processes unless told otherwise (1 = in-process).
DEFAULT_WORKERS = 1

#: A job that killed this many workers while running *alone* is
#: quarantined: further submissions answer a structured ``worker-crash``
#: error instead of feeding the job another worker.
CRASH_STRIKE_LIMIT = 2


def _pool_context():
    """The ``fork`` start method where available, else ``spawn``."""
    try:
        return get_context("fork")
    except ValueError:
        return get_context("spawn")


def _orphan_watchdog(parent_pid: int) -> None:
    """Exit the worker as soon as its parent process is gone.

    A pool worker that outlives a hard-killed parent blocks on the
    call queue forever: sibling workers hold forked duplicates of the
    queue's write end, so EOF never arrives.  Worse, forked workers
    also hold duplicates of every listening socket the parent had
    open, which keeps the dead server's port bound and blocks a
    replacement replica from binding it.  Reparenting (``getppid``
    changing) is the portable death signal.
    """
    while os.getppid() == parent_pid:
        time.sleep(1.0)
    os._exit(1)


def _worker_init() -> None:
    """Detach a pool worker from its parent's lifecycle plumbing.

    Forked workers inherit the parent's signal handlers *and* its
    ``signal.set_wakeup_fd`` pipe — under asyncio that pipe is the
    event loop's self-pipe, shared with the parent across the fork.
    A worker that then receives SIGTERM (the executor terminates
    survivors whenever a sibling hard-crashes the pool) would write
    the signal byte into the *parent's* loop and shut the whole
    server down as if the operator had sent it SIGTERM.  Resetting
    both keeps worker-directed signals worker-local; the watchdog
    thread handles the reverse direction (parent dies first).
    """
    import signal

    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):
        pass  # not the main thread, or no fd was registered
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):
            pass
    threading.Thread(
        target=_orphan_watchdog,
        args=(os.getppid(),),
        name="orphan-watchdog",
        daemon=True,
    ).start()


def _gap_rule(
    spec: Optional[JobSpec], algorithm: str, num_ops: int, gap_ops_limit: int
) -> bool:
    """Does a job get an optimality gap (when gaps are asked for)?

    Constrained jobs (windows or a scenario) never do — the
    unconstrained optimum is not their baseline — nor does the
    comparator ``bnb-anytime`` itself or a graph above
    ``gap_ops_limit`` ops.  ``spec`` is ``None`` where only the result
    is at hand.
    """
    if spec is not None and (spec.windows or spec.scenario):
        return False
    return algorithm != "bnb-anytime" and num_ops <= gap_ops_limit


def execute_job(
    spec: JobSpec,
    key: str,
    graph_hash: str,
    compute_gap: bool = False,
    gap_ops_limit: int = DEFAULT_GAP_OPS_LIMIT,
    capture_schedule: bool = False,
) -> JobResult:
    """Run one job to completion in the current process.

    Top-level (not a closure) so a spawn-context worker can unpickle it.
    The graph is rebuilt from the spec here, in the executing process.

    A :class:`~repro.errors.SchedulingError` out of the scheduler (an
    infeasible latency mid-sweep, a resource set that cannot execute
    some op) becomes a *structured failure*: the returned result
    carries ``error`` and ``length == -1`` instead of aborting the
    whole batch with an exception.  Programming errors still raise.
    """
    if faultlab.enabled():
        # Chaos harness: a matching job takes the whole worker down
        # with os._exit — a faithful stand-in for a segfault/OOM kill.
        faultlab.maybe_crash_worker(f"{key} {spec.graph.describe()}")
    dfg = spec.graph.build()
    resources = spec.resource_set()
    runner = ALGORITHMS[spec.algorithm].runner
    # Threaded scheduling keeps the graph by reference, and refinement
    # passes over its state (spill/wire insertion in repro.core.refine)
    # grow it in place.  No registry runner applies those passes today,
    # but input-graph facts — the op count reported on the result and
    # the gap-comparator eligibility — are sampled before the runner
    # regardless, so a refinement-enabled runner can never skew them.
    num_input_ops = dfg.num_nodes
    input_ops = dfg.nodes() if capture_schedule else None
    started = time.perf_counter()
    error: Optional[str] = None
    schedule = None
    scenario_meta: Optional[Dict] = None
    try:
        # Constraint kwargs are combinable: a windowed anytime spec
        # carries both `windows` and `budget` to its runner.  Each
        # kwarg rides only on runners whose algorithm family accepts
        # it (the spec constructor checks the algorithm's `windows`
        # / `budget` capabilities); an unconstrained spec still
        # runs two-positional so algorithm stubs in tests keep
        # working.  A window naming an op the graph does not have is
        # a structured failure like any other infeasible job, not a
        # batch abort.
        windows = validated_windows(dfg, spec) if spec.windows else None
        if spec.scenario:
            # Lowered *after* the input-graph facts were sampled: the
            # reliability transform grows the graph in place, so its
            # replicas and voters land in the artifact's `inserted`
            # list exactly like spill code.
            resources, windows, scenario_meta = lower_scenario(
                spec.scenario, dfg, resources, windows
            )
        kwargs = {}
        if windows:
            kwargs["windows"] = windows
        if spec.budget:
            kwargs["budget"] = spec.budget_dict()
        schedule = runner(dfg, resources, **kwargs)
        if schedule is not None and scenario_meta is not None:
            meta = dict(schedule.meta or {})
            meta["scenario"] = scenario_meta
            schedule.meta = meta
    except SchedulingError as exc:
        error = f"{type(exc).__name__}: {exc}"
    runtime_s = time.perf_counter() - started

    gap: Optional[int] = None
    if (
        schedule is not None
        and compute_gap
        and _gap_rule(spec, spec.algorithm, num_input_ops, gap_ops_limit)
    ):
        # Fresh build: threaded scheduling keeps the graph by reference,
        # so the comparator must not share state with the measured run.
        # Only a proved optimum is a baseline; an unproved comparator
        # leaves the gap unknown.
        try:
            optimum = ALGORITHMS["bnb-anytime"].runner(
                spec.graph.build(), resources
            )
            if optimum.meta["bnb"]["proved"]:
                gap = schedule.length - optimum.length
        except SchedulingError:
            gap = None  # the comparator's infeasibility is not the job's

    artifact = None
    if capture_schedule and schedule is not None:
        artifact = schedule_artifact(schedule, input_ops=input_ops)

    return JobResult(
        key=key,
        graph=spec.graph.describe(),
        graph_hash=graph_hash,
        num_ops=num_input_ops,
        resources=spec.resources,
        algorithm=spec.algorithm,
        length=-1 if schedule is None else schedule.length,
        runtime_s=runtime_s,
        gap=gap,
        artifact=artifact,
        error=error,
    )


class BatchEngine:
    """Parallel, cache-backed executor for scheduling jobs.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (the default) runs everything in-process;
        higher values fan unique jobs out over a process pool using the
        ``fork`` start method where the platform offers it, else
        ``spawn`` (see :func:`_pool_context`).
    cache / cache_dir:
        Pass a ready :class:`ResultCache`, or a directory for the
        on-disk layer, or neither for a fresh in-memory cache.
        ``max_cache_entries`` bounds a cache the engine constructs
        itself (LRU eviction; see :class:`ResultCache`).
    compute_gaps:
        When true, jobs on graphs of at most ``gap_ops_limit`` ops also
        run the ``bnb-anytime`` comparator and, when it proves its
        optimum, record the optimality gap in :attr:`JobResult.gap`.
    capture_schedules:
        When true, every computed result carries the full schedule
        (op -> step/unit plus soft-scheduling insertions) in
        :attr:`JobResult.artifact`.
    """

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        cache: Optional[ResultCache] = None,
        cache_dir: Union[str, Path, None] = None,
        compute_gaps: bool = False,
        gap_ops_limit: int = DEFAULT_GAP_OPS_LIMIT,
        capture_schedules: bool = False,
        max_cache_entries: Optional[int] = None,
    ):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if cache is not None and cache_dir is not None:
            raise ConfigError("pass either `cache` or `cache_dir`, not both")
        if cache is not None and max_cache_entries is not None:
            raise ConfigError(
                "max_cache_entries applies to an engine-built cache; "
                "bound the ResultCache you pass in instead"
            )
        self.workers = int(workers)
        if cache is None:
            cache = ResultCache(cache_dir, max_entries=max_cache_entries)
        self.cache = cache
        self.compute_gaps = compute_gaps
        self.gap_ops_limit = gap_ops_limit
        self.capture_schedules = capture_schedules
        # The module-level limit is read here (not in keys.py) so tests
        # and embedders that tune `batch.FINGERPRINT_MEMO_LIMIT` keep
        # affecting engines constructed afterwards.
        self._keys = CacheKeyResolver(memo_limit=FINGERPRINT_MEMO_LIMIT)
        # Submission-path state: the lock guards every structure that
        # concurrent `submit` callers share (the cache, the fingerprint
        # memo); `_pool` is the persistent executor `start` creates so a
        # long-lived front end does not pay pool spin-up per batch.
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        # Worker-crash bookkeeping.  `_crash_lock` is a leaf lock (never
        # held while taking `_lock` or `_pool_lock`): it guards the
        # strike counts, the quarantine table, and the two counters the
        # serving layer exports.  `_pool_lock` serializes persistent-
        # pool rebuilds after a BrokenProcessPool, since two concurrent
        # submit() threads can observe the same break.
        self._crash_lock = threading.Lock()
        self._pool_lock = threading.Lock()
        self._crash_strikes: Dict[str, int] = {}
        self._quarantined: Dict[str, str] = {}
        metrics.zero(self, metrics.ENGINE)

    # ------------------------------------------------------------------

    @property
    def _fingerprints(self) -> Dict[GraphSpec, str]:
        return self._keys._fingerprints

    def _graph_hash(self, spec: GraphSpec) -> str:
        """Content hash of the spec's graph (memoized, bounded)."""
        return self._keys.graph_hash(spec)

    def _gap_eligible(
        self, result: JobResult, spec: Optional[JobSpec] = None
    ) -> bool:
        """Would *this* engine compute a gap for this job?"""
        return self.compute_gaps and _gap_rule(
            spec, result.algorithm, result.num_ops, self.gap_ops_limit
        )

    def _servable(
        self, result: JobResult, spec: Optional[JobSpec] = None
    ) -> bool:
        """Can a cached entry satisfy this engine's configuration?

        Entries recorded by a leaner engine may lack a payload this one
        was asked for — the full-schedule artifact, or the optimality
        gap on a gap-eligible graph.  Those count as misses so the job
        recomputes and overwrites the entry with a richer one.
        """
        if self.capture_schedules and result.artifact is None:
            return False
        if self._gap_eligible(result, spec) and result.gap is None:
            return False
        return True

    def _merge_payloads(
        self, result: JobResult, old: Optional[JobResult]
    ) -> JobResult:
        """Graft rich payloads this run didn't produce from the old
        entry, so upgrading one payload never destroys the other
        (alternating --gaps / --artifacts runs converge, not thrash)."""
        if old is None:
            return result
        if result.artifact is None and old.artifact is not None:
            result = replace(result, artifact=old.artifact)
        if result.gap is None and old.gap is not None:
            result = replace(result, gap=old.gap)
        return result

    def _store_candidate(
        self, result: JobResult, old: Optional[JobResult]
    ) -> JobResult:
        """The entry every write path stores (and serves) for a key.

        Non-anytime keys keep the historical behavior: the incoming
        result wins and grafts whichever rich payloads it did not
        produce from the previous entry — results for such keys are a
        pure function of the spec, so payloads always describe the
        same schedule.

        Anytime keys (algorithms with the ``budget`` capability) are
        rewritten in place as improver jobs tighten the incumbent, so
        any write may race a strictly better concurrent rewrite (a
        local improver, a peer publish, a budget-capped recompute).
        The better-ranked result wins (see
        :func:`repro.engine.job.improves_result`); when the incoming
        one loses, the stored entry is returned *unchanged* — its
        identity signals refusal — and payloads only merge between
        results of equal length, because a gap or artifact is only
        valid for the schedule it was computed against.
        """
        if (
            result.algorithm not in capable("budget")
            or old is None
            or not old.ok
        ):
            return self._merge_payloads(result, old)
        if not improves_result(result, old):
            return old
        if old.length == result.length:
            return self._merge_payloads(result, old)
        return result

    def _admit(
        self, result: JobResult, publish: bool
    ) -> Tuple[JobResult, bool]:
        """The one write path into the store; call under ``_lock``.

        Ranks ``result`` against the entry already held for its key —
        across memory *and* disk, so a freshly started process (a CLI
        improver on a shared cache directory, a restarted replica
        receiving a stale peer publish) compares against what is on
        disk — and stores the winner (see :meth:`_store_candidate`).
        ``publish`` picks the cache's publishing ``put`` over its
        local-only ``install``, so a peer-supplied entry never echoes
        back into the cluster it came from.  When the held entry wins,
        nothing is written.  Returns the entry now held and whether
        ``result`` (with merged payloads) was stored.
        """
        old = self.cache.lookup(result.key)
        stored = self._store_candidate(result, old)
        if stored is old:
            return old, False
        (self.cache.put if publish else self.cache.install)(stored)
        return stored, True

    def _as_hit(self, entry: JobResult) -> JobResult:
        """``entry`` shaped for this engine and served as a cache hit,
        with its own copy of any artifact it keeps."""
        artifact = deepcopy(entry.artifact) if self.capture_schedules else None
        return self._shape(replace(entry, cached=True, artifact=artifact))

    def _shape(self, result: JobResult) -> JobResult:
        """Trim a result to what this engine was asked to produce.

        A store warmed by a richer run must not change this run's
        output shape: payloads not requested here — including a gap
        computed under a looser ``gap_ops_limit`` — are stripped from
        the returned results (the stored entry keeps them)."""
        if not self.capture_schedules and result.artifact is not None:
            result = replace(result, artifact=None)
        if result.gap is not None and not self._gap_eligible(result):
            result = replace(result, gap=None)
        return result

    # ------------------------------------------------------------------
    # Lifecycle: a persistent pool for long-lived submitters.

    def start(self) -> "BatchEngine":
        """Create the persistent worker pool (idempotent).

        A started engine keeps one ``ProcessPoolExecutor`` alive across
        :meth:`submit` calls, so a long-lived caller — the serving front
        end flushing micro-batches every few milliseconds — does not pay
        pool spin-up per batch.  With ``workers == 1`` there is nothing
        to start and jobs keep running in the submitting thread.
        """
        if self.workers > 1 and self._pool is None:
            self._pool = self._new_pool(self.workers)
        return self

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        """A worker pool with this engine's start method and the
        worker-side signal detachment (see :func:`_worker_init`)."""
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_pool_context(),
            initializer=_worker_init,
        )

    def _job_args(self, key: str, spec: JobSpec, graph_hash: str) -> tuple:
        """The :func:`execute_job` arguments for one job on this engine."""
        return (
            spec,
            key,
            graph_hash,
            self.compute_gaps,
            self.gap_ops_limit,
            self.capture_schedules,
        )

    def shutdown(self, wait: bool = True) -> None:
        """Tear down the persistent pool (no-op when never started)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "BatchEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Submission.

    def run(self, jobs: Iterable[JobSpec]) -> List[JobResult]:
        """Execute ``jobs``; one result per job, in submission order."""
        return self.submit(jobs)

    def submit(self, jobs: Iterable[JobSpec]) -> List[JobResult]:
        """Execute one batch; safe to call from concurrent threads.

        The cache-resolution and store-back phases serialize on an
        internal lock (the cache's bookkeeping is not thread-safe); the
        compute phase runs outside it, so overlapping batches from
        different threads share the worker pool instead of queueing
        behind each other.  Two concurrent batches that miss the same
        key may both compute it — the second store-back simply
        overwrites the first with an identical result; callers that
        must never duplicate work coalesce upstream (see
        :mod:`repro.serve.coalescer`).  Every store-back, like every
        other write, goes through :meth:`_admit`.
        """
        specs = list(jobs)
        for spec in specs:
            if not isinstance(spec, JobSpec):
                raise TypeError(
                    f"BatchEngine.run expects JobSpec items, got {spec!r}"
                )

        resolved: Dict[int, JobResult] = {}

        with self._lock:
            # Group indices by cache key first, so the cache sees
            # exactly one lookup per *unique* key: within-batch
            # duplicates resolve through dedup (counted as hits) and
            # one unique miss is one miss, however many jobs share it.
            occurrences: Dict[str, List[int]] = {}
            unique: List[Tuple[str, JobSpec, str]] = []
            for index, spec in enumerate(specs):
                graph_hash = self._graph_hash(spec.graph)
                key = spec.cache_key(graph_hash)
                if key not in occurrences:
                    occurrences[key] = []
                    unique.append((key, spec, graph_hash))
                occurrences[key].append(index)

            def resolve(key: str, shaped: JobResult) -> None:
                """Fan one shaped result out to every index sharing its
                key.

                Each duplicate gets its own artifact dict: consumers
                that rework one schedule must not see siblings change.
                """
                first, *dupes = occurrences[key]
                resolved[first] = shaped
                for index in dupes:
                    resolved[index] = replace(
                        shaped,
                        cached=True,
                        artifact=deepcopy(shaped.artifact),
                    )
                self.cache.record_dedup_hits(len(dupes))

            keyed: List[Tuple[str, JobSpec, str]] = []
            for key, spec, graph_hash in unique:
                answer = self._answer(key, spec, graph_hash)
                if answer is None:
                    keyed.append((key, spec, graph_hash))
                    continue
                resolve(key, answer)

        keyed = self._resolve_from_peers(keyed, resolve)

        computed = self._compute(keyed)

        with self._lock:
            for key, result in computed:
                if result.error is not None:
                    # Structured failures are answered, not cached: a
                    # poisoned store would keep serving the failure
                    # after the bug (or resource model) is fixed.
                    resolve(key, result)
                    continue
                # A rejected leaner entry may survive in the store:
                # _admit carries its other payload over.  For anytime
                # keys that entry may win outright (a concurrent
                # rewrite out-ranked this compute) — serve it as a hit.
                held, stored = self._admit(result, publish=True)
                shaped = self._shape(held) if stored else self._as_hit(held)
                resolve(key, shaped)

        return [resolved[index] for index in range(len(specs))]

    def _answer(
        self,
        key: str,
        spec: JobSpec,
        graph_hash: str,
        share_artifact: bool = False,
    ) -> Optional[JobResult]:
        """What the store answers for one job; None on a miss.

        The one hit resolver, shared by :meth:`submit` and
        :meth:`memory_hit`; call under ``_lock``.  A quarantined job
        never reaches another worker: it answers its structured failure
        (never cached — see the store-back phase).  Otherwise a
        servable entry is a hit, counted and LRU-touched by the cache
        and shaped for this engine.  ``share_artifact`` passes through
        to :meth:`ResultCache.get`.
        """
        quarantine = self._quarantine_error(key)
        if quarantine is not None:
            return self._crash_result(key, spec, graph_hash, quarantine)
        hit = self.cache.get(
            key,
            require=lambda r: self._servable(r, spec),
            strip_artifact=not self.capture_schedules,
            share_artifact=share_artifact,
        )
        return None if hit is None else self._shape(hit)

    def memory_hit(self, spec: JobSpec) -> Optional[JobResult]:
        """Answer ``spec`` from the memory tier without waiting; or None.

        The serving layer's event-loop probe (see
        :meth:`repro.serve.coalescer.RequestCoalescer.schedule`).  It
        never blocks on the submission lock, reads an entry from disk,
        or builds or hashes a graph: a contended lock, a graph whose
        fingerprint is not memoized, or no servable entry in memory
        returns None with no stats moved, and the caller submits the
        job as usual.  A hit moves the same stats and LRU recency as
        one in :meth:`submit` (with a disk layer, that includes the
        shard-file mtime refresh the cache throttles to once per
        ``TOUCH_INTERVAL_S`` per key), and carries the store's own
        artifact object (read-only; see ``share_artifact`` on
        :meth:`ResultCache.get`).
        """
        if not self._lock.acquire(blocking=False):
            return None
        try:
            graph_hash = self._fingerprints.get(spec.graph)
            if graph_hash is None:
                return None
            key = spec.cache_key(graph_hash)
            entry = self.cache.lookup(key, memory_only=True)
            if entry is None or not self._servable(entry, spec):
                return None
            return self._answer(key, spec, graph_hash, share_artifact=True)
        finally:
            self._lock.release()

    def _resolve_from_peers(
        self,
        keyed: List[Tuple[str, JobSpec, str]],
        resolve,
    ) -> List[Tuple[str, JobSpec, str]]:
        """Try the cache's cluster tier for locally-missed keys.

        Runs between the two locked phases of :meth:`submit`: the
        network walk (``cache.fetch_missing``) happens with the lock
        released, the installs of whatever came back retake it.  A
        plain :class:`ResultCache` fetches nothing and this is a
        no-op.  Fetched entries that still fail this engine's
        servability bar (missing artifact/gap) are admitted — so their
        payloads merge on overwrite — but stay scheduled for compute.
        """
        if not keyed:
            return keyed
        fetched = self.cache.fetch_missing([key for key, _, _ in keyed])
        if not fetched:
            return keyed
        still: List[Tuple[str, JobSpec, str]] = []
        with self._lock:
            for key, spec, graph_hash in keyed:
                result = fetched.get(key)
                if result is None or result.error is not None:
                    still.append((key, spec, graph_hash))
                    continue
                held, _ = self._admit(result, publish=False)
                if not self._servable(held, spec):
                    still.append((key, spec, graph_hash))
                    continue
                resolve(key, self._as_hit(held))
        return still

    # ------------------------------------------------------------------
    # The cluster-tier serving surface (GET/POST /cache/<key>).

    def entry_payload(self, key: str) -> Optional[Dict]:
        """The raw cache-entry document for ``key``, or None.

        Thread-safe; this is what a replica serves to a peer's
        ``GET /cache/<key>``.  Stats-free by contract (see
        :meth:`ResultCache.export_entry`), so peer probes never distort
        this replica's hit/miss accounting.
        """
        with self._lock:
            return self.cache.export_entry(key)

    def install_result(self, result: JobResult) -> bool:
        """Install a peer-published result into the local tiers.

        Thread-safe; this is the ``POST /cache/<key>`` receive path.
        Uses the cache's publish-free ``install``, so an entry never
        echoes back into the cluster it arrived from.  Structured
        failures are refused (error results are never cached), as is
        an anytime entry that does not improve the one already stored
        (a stale publish must never regress a local rewrite).  Returns
        whether the entry was accepted.
        """
        if result.error is not None:
            return False
        with self._lock:
            return self._admit(result, publish=False)[1]

    def rewrite_result(self, result: JobResult) -> bool:
        """Rewrite a cached anytime entry in place with a better one.

        Thread-safe; this is the improver tier's store-back.  The
        entry is only replaced when ``result`` strictly improves the
        stored one (or none exists), so concurrent improvers, peer
        publishes, and budget-capped recomputes can race freely
        without ever regressing the incumbent.  Unlike
        :meth:`install_result` this goes through the cache's
        publishing ``put``: when the cluster tier is attached, an
        accepted improvement fans out to ring peers exactly like a
        fresh compute.  Returns whether the rewrite was applied.
        """
        if result.error is not None:
            return False
        require_capability(
            result.algorithm,
            "budget",
            "rewrite_result only applies to anytime algorithms "
            "({known}), got {algorithm!r}",
        )
        with self._lock:
            return self._admit(result, publish=True)[1]

    def _compute(
        self, keyed: List[Tuple[str, JobSpec, str]]
    ) -> List[Tuple[str, JobResult]]:
        if not keyed:
            return []
        if self.workers == 1 or (len(keyed) == 1 and self._pool is None):
            return [
                (item[0], execute_job(*self._job_args(*item)))
                for item in keyed
            ]
        if self._pool is not None:
            return self._collect(self._pool, keyed)
        with self._new_pool(min(self.workers, len(keyed))) as pool:
            return self._collect(pool, keyed)

    def _collect(
        self,
        pool: ProcessPoolExecutor,
        keyed: List[Tuple[str, JobSpec, str]],
    ) -> List[Tuple[str, JobResult]]:
        """Run one batch through ``pool``, surviving worker crashes.

        A pool worker dying (segfault, OOM kill, injected
        ``os._exit``) breaks the *entire* executor: every unfinished
        future raises :class:`BrokenProcessPool`.  Instead of losing
        the batch, this keeps whatever finished before the break,
        rebuilds the persistent pool for subsequent batches, and
        re-dispatches the unfinished jobs one at a time in throwaway
        single-worker pools — isolation makes a second crash
        attributable to exactly one job, which is then quarantined as
        a structured never-cached ``worker-crash`` error while every
        sibling completes normally.  No future ever hangs.
        """
        done, crashed = self._run_round(pool, keyed)
        if not crashed:
            return done
        with self._crash_lock:
            self.worker_crashes += 1
        self._rebuild_pool(pool)
        if len(crashed) == 1:
            # The break is attributable: only one job was in flight.
            self._record_strike(crashed[0][0])
        for key, spec, graph_hash in crashed:
            done.append((key, self._retry_solo(key, spec, graph_hash)))
        return done

    def _run_round(
        self,
        pool: ProcessPoolExecutor,
        keyed: List[Tuple[str, JobSpec, str]],
    ) -> Tuple[
        List[Tuple[str, JobResult]], List[Tuple[str, JobSpec, str]]
    ]:
        """Submit a batch; partition into (finished, crash-unfinished).
        """
        futures = {}
        crashed: List[Tuple[str, JobSpec, str]] = []
        for item in keyed:
            try:
                future = pool.submit(execute_job, *self._job_args(*item))
            except (BrokenProcessPool, RuntimeError):
                # Pool already broken (or shut down by a concurrent
                # rebuild): everything not yet submitted retries solo.
                crashed.append(item)
                continue
            futures[future] = item
        done: List[Tuple[str, JobResult]] = []
        for future in as_completed(futures):
            item = futures[future]
            try:
                done.append((item[0], future.result()))
            except BrokenProcessPool:
                crashed.append(item)
        return done, crashed

    def _rebuild_pool(self, broken: ProcessPoolExecutor) -> None:
        """Replace the persistent pool after a break (idempotent).

        Identity-checked under ``_pool_lock``: when two submit threads
        observe the same broken pool, exactly one rebuild happens.
        Ad-hoc pools (no ``start()``) are owned by their ``with``
        block and need no replacement.
        """
        with self._pool_lock:
            if self._pool is not broken:
                return
            broken.shutdown(wait=False)
            self._pool = self._new_pool(self.workers)

    def _retry_solo(
        self, key: str, spec: JobSpec, graph_hash: str
    ) -> JobResult:
        """Re-run one crash-unfinished job in isolation.

        Each attempt gets a fresh single-worker pool, so a crash here
        is this job's doing beyond doubt — that is a strike.  At
        :data:`CRASH_STRIKE_LIMIT` strikes the job is quarantined and
        answered as a structured error forever after (a genuinely
        poisonous job must not eat a worker per submission).
        """
        while True:
            quarantine = self._quarantine_error(key)
            if quarantine is not None:
                return self._crash_result(key, spec, graph_hash,
                                          quarantine)
            try:
                with self._new_pool(1) as solo:
                    result = solo.submit(
                        execute_job, *self._job_args(key, spec, graph_hash)
                    ).result()
            except BrokenProcessPool:
                with self._crash_lock:
                    self.worker_crashes += 1
                self._record_strike(key)
                continue
            with self._crash_lock:
                self._crash_strikes.pop(key, None)
            return result

    def _record_strike(self, key: str) -> None:
        """One attributable worker kill for ``key``; maybe quarantine.
        """
        with self._crash_lock:
            strikes = self._crash_strikes.get(key, 0) + 1
            self._crash_strikes[key] = strikes
            if (
                strikes >= CRASH_STRIKE_LIMIT
                and key not in self._quarantined
            ):
                self._quarantined[key] = (
                    f"worker-crash: job killed {strikes} workers; "
                    f"quarantined"
                )
                self.quarantined_jobs += 1

    def _quarantine_error(self, key: str) -> Optional[str]:
        with self._crash_lock:
            return self._quarantined.get(key)

    def _crash_result(
        self, key: str, spec: JobSpec, graph_hash: str, error: str
    ) -> JobResult:
        """The structured answer for a quarantined job.

        ``num_ops`` is 0 because the graph may be exactly what kills
        workers — nothing here rebuilds it in the serving process.
        """
        return JobResult(
            key=key,
            graph=spec.graph.describe(),
            graph_hash=graph_hash,
            num_ops=0,
            resources=spec.resources,
            algorithm=spec.algorithm,
            length=-1,
            runtime_s=0.0,
            gap=None,
            artifact=None,
            error=error,
        )

    def crash_stats(self) -> Dict[str, int]:
        """Worker-crash counters for the serving layer's /metrics."""
        with self._crash_lock:
            return metrics.read(self, metrics.ENGINE)
