"""Request coalescing and micro-batching in front of the batch engine.

Online scheduling traffic is duplicate-heavy: feedback-guided iterative
flows re-query the same ``(graph, resources, algorithm)`` point many
times while exploring a design.  The coalescer exploits that three
ways:

* **Memory hits on the loop** — a request whose answer sits in the
  engine's memory tier is answered on the spot through
  :meth:`BatchEngine.memory_hit`, which never blocks, so a warm hit
  pays no batch window and no thread hop.  Anything the probe cannot
  settle at once (a miss, a disk-only or unservable entry, a busy
  engine lock) takes the buffered path below unchanged.
* **Coalescing** — a request whose :class:`~repro.engine.job.JobSpec`
  is already in flight attaches to the existing future instead of
  submitting again, so a burst of N identical requests costs exactly
  one computation.
* **Micro-batching** — unique requests accumulate in a buffer that is
  flushed into :meth:`BatchEngine.submit` when it reaches
  ``max_batch`` jobs or when the oldest buffered request has waited
  ``batch_window_ms`` — whichever comes first.  Batching amortizes
  cache bookkeeping and keeps the engine's worker pool fed with whole
  batches instead of single jobs.

Flushes run in a thread-pool executor (``engine.submit`` is
thread-safe and blocking); multiple flushed batches may overlap there,
sharing the engine's persistent process pool.  All coalescer state is
touched only from the event loop, so there is no locking here.

A burst of identical requests resolves through one computation — the
first caller computes, the twins coalesce:

>>> import asyncio
>>> from repro.engine.batch import BatchEngine
>>> from repro.engine.job import JobSpec
>>> async def burst():
...     coalescer = RequestCoalescer(
...         BatchEngine(), batch_window_ms=1.0)
...     spec = JobSpec.make("HAL", "2+/-,2*", "list")
...     settled = await asyncio.gather(
...         *(coalescer.schedule(spec) for _ in range(3)))
...     await coalescer.drain()
...     coalescer.close()
...     return settled
>>> settled = asyncio.run(burst())
>>> sorted(coalesced for _, coalesced in settled)
[False, True, True]
>>> len({result.length for result, _ in settled})
1
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.engine.batch import BatchEngine
from repro.engine.job import JobResult, JobSpec
from repro.errors import ConfigError, ReproError, check_duration
from repro.serve.metrics import ServiceMetrics

#: Flush when the buffer reaches this many unique jobs...
DEFAULT_MAX_BATCH = 32

#: ...or when the oldest buffered job has waited this long (ms).
DEFAULT_BATCH_WINDOW_MS = 5.0

#: Dispatch threads: how many flushed batches may block in
#: ``engine.submit`` concurrently.  Two keeps a slow batch from
#: stalling the next flush without spawning a thread herd.
DISPATCH_THREADS = 2


class RequestCoalescer:
    """Coalesce duplicate in-flight jobs, micro-batch the rest."""

    def __init__(
        self,
        engine: BatchEngine,
        metrics: Optional[ServiceMetrics] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
    ):
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        self.engine = engine
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.max_batch = max_batch
        check_duration("batch_window_ms", batch_window_ms, allow_zero=True)
        self.batch_window_s = batch_window_ms / 1000.0
        self._inflight: Dict[JobSpec, asyncio.Future] = {}
        self._buffer: List[Tuple[JobSpec, asyncio.Future]] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._executor = ThreadPoolExecutor(
            max_workers=DISPATCH_THREADS,
            thread_name_prefix="repro-serve-dispatch",
        )
        self._batches: set = set()

    # ------------------------------------------------------------------

    @property
    def pending_jobs(self) -> int:
        """Unique jobs admitted but not yet resolved."""
        return len(self._inflight)

    async def schedule(self, spec: JobSpec) -> Tuple[JobResult, bool]:
        """Resolve one job; returns ``(result, coalesced)``.

        ``coalesced`` is True when the request attached to a
        computation another request already had in flight.  Awaiting
        the shared future is shielded per caller, so one client
        disconnecting never cancels the computation its twins are
        still waiting on.  A memory-tier hit returns without awaiting
        anything; its artifact is the store's own, so callers only
        read it.
        """
        future = self._inflight.get(spec)
        if future is not None:
            self.metrics.coalesced += 1
            return await asyncio.shield(future), True
        result = self.engine.memory_hit(spec)
        if result is not None:
            self._count(result)
            return result, False
        future = asyncio.get_running_loop().create_future()
        self._inflight[spec] = future
        self._buffer.append((spec, future))
        self.metrics.queue_depth += 1
        if len(self._buffer) >= self.max_batch:
            self._flush_now()
        elif self._timer is None:
            self._timer = asyncio.get_running_loop().call_later(
                self.batch_window_s, self._flush_now
            )
        return await asyncio.shield(future), False

    # ------------------------------------------------------------------

    def _flush_now(self) -> None:
        """Hand the buffered jobs to the engine (event-loop thread)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        self.metrics.batches += 1
        task = asyncio.get_running_loop().create_task(
            self._run_batch(batch)
        )
        # Keep a strong reference until done (asyncio keeps tasks
        # weakly); drain() also gathers these.
        self._batches.add(task)
        task.add_done_callback(self._batches.discard)

    def _settle(self, spec: JobSpec) -> None:
        """Retire one admitted job's bookkeeping.

        Runs exactly once per buffered job, *next to* its future
        resolving — never earlier — so the ``queue_depth`` gauge counts
        work as in-flight until the moment its client can observe the
        result.
        """
        self._inflight.pop(spec, None)
        self.metrics.queue_depth -= 1
        assert self.metrics.queue_depth >= 0, (
            "queue_depth gauge went negative: a job was settled twice"
        )

    def _fail_batch(
        self,
        batch: List[Tuple[JobSpec, asyncio.Future]],
        exc: BaseException,
    ) -> None:
        for spec, future in batch:
            self._settle(spec)
            if not future.done():
                future.set_exception(exc)

    async def _run_batch(
        self, batch: List[Tuple[JobSpec, asyncio.Future]]
    ) -> None:
        specs = [spec for spec, _ in batch]
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._executor, self.engine.submit, specs
            )
        except Exception as exc:
            self._fail_batch(batch, exc)
            return
        except BaseException as exc:
            # Cancellation of the flush task (event-loop teardown)
            # must still settle the batch: leaked _inflight entries
            # would make every later duplicate of these specs attach
            # to a future nobody will ever resolve.
            self._fail_batch(batch, exc)
            raise
        if len(results) != len(batch):
            # zip() would silently drop the unmatched tail and leave
            # those clients awaiting futures nobody will ever resolve.
            # An engine answering the wrong shape is a contract breach;
            # fail every affected client loudly instead of hanging them.
            self._fail_batch(
                batch,
                ReproError(
                    f"engine returned {len(results)} results for a "
                    f"batch of {len(batch)} jobs; failing all "
                    f"{len(batch)} affected requests instead of "
                    "hanging the unmatched clients"
                ),
            )
            return
        for (spec, future), result in zip(batch, results):
            self._settle(spec)
            self._count(result)
            if not future.done():
                future.set_result(result)

    def _count(self, result: JobResult) -> None:
        """Move the counters for one answered job, however it was
        resolved (memory hit on the loop, or a flushed batch)."""
        if result.cached:
            self.metrics.cache_hits += 1
            return
        self.metrics.computed += 1
        self.metrics.record_compute(result.algorithm, result.runtime_s)
        # Hierarchical jobs report orchestration meta in the artifact;
        # surface round/partition totals on /metrics.
        meta = (result.artifact or {}).get("meta") or {}
        if "hier_rounds" in meta:
            self.metrics.record_hier(
                meta["hier_rounds"], meta.get("hier_partitions", 0)
            )
        # Scenario jobs record their mode in the artifact meta the same
        # way; surface per-mode counts on /metrics.
        scenario = meta.get("scenario") or {}
        if "mode" in scenario:
            self.metrics.record_scenario(scenario["mode"])

    # ------------------------------------------------------------------

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Flush the buffer and wait for every in-flight job.

        Returns True when everything resolved inside ``timeout``
        (None = wait forever).  New work arriving during the drain is
        waited on too — callers stop admission first.
        """
        deadline = (
            None
            if timeout is None
            else asyncio.get_running_loop().time() + timeout
        )
        while self._buffer or self._batches or self._inflight:
            self._flush_now()
            waiters = [
                asyncio.shield(f)
                for f in list(self._inflight.values())
            ] + [asyncio.shield(t) for t in list(self._batches)]
            if not waiters:
                break
            remaining = None
            if deadline is not None:
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    return False
            done, pending = await asyncio.wait(
                waiters, timeout=remaining
            )
            for waiter in pending:
                waiter.cancel()
            if pending and deadline is not None:
                return False
        return True

    def close(self) -> None:
        """Release the dispatch threads (after :meth:`drain`)."""
        self._executor.shutdown(wait=False)
