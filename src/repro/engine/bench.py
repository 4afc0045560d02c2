"""The unified benchmark harness, built on the batch engine.

One suite definition replaces the per-topic constants the ad-hoc
``benchmarks/bench_*.py`` scripts each re-declared: the five benchmark
graphs × four schedulers × the paper's primary resource constraint.
Those pytest-benchmark scripts now import the suite from here; this
module additionally runs the whole suite through :class:`BatchEngine`
and emits a machine-readable results document (``BENCH_results.json``)
for baseline comparison in CI.

Regression policy (:func:`check_report`): a run fails against a
baseline when any (graph, algorithm, resources) cell is missing, when
its schedule length exceeds the baseline's, or when its runtime blows
up by more than ``runtime_factor`` (2x by default) after normalizing
out the suite-wide machine-speed ratio, with a small absolute grace so
micro-runtimes don't flake.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.engine.batch import BatchEngine
from repro.engine.job import JobResult, JobSpec, canonical_algorithm
from repro.engine.sweeps import registry_sweep
from repro.experiments.tables import render_table

RESULTS_FORMAT = "repro-bench-v1"

#: The benchmark graphs timed by every ad-hoc bench script.
SUITE_BENCHES: Tuple[str, ...] = ("HAL", "AR", "EF", "FIR", "DCT8")

#: The scheduler line-up: both list priorities, force-directed, and the
#: paper's best meta schedule.
SUITE_ALGORITHMS: Tuple[str, ...] = (
    "list(ready)",
    "list(critical-path)",
    "force-directed",
    "threaded(meta4)",
)

#: The paper's primary Figure 3 resource column.
SUITE_CONSTRAINT = "2+/-,2*"

#: Runtime-regression tolerance.  Baselines travel across machines
#: (committed from one box, checked on another), so raw wall-times are
#: first normalized by the suite's median per-cell speed ratio — that
#: cancels hardware speed and uniform load.  A cell fails when it runs
#: more than ``factor``x its normalized expectation AND the absolute
#: excess tops ``grace`` seconds (ms-scale cells are pure noise below
#: that; worker contention also skews CPU-heavy cells more than tiny
#: ones, so compare serial runs against serial baselines where runtime
#: precision matters).  The deliberate blind spot: a perfectly uniform
#: slowdown of every scheduler is indistinguishable from slower
#: hardware and does not trip.
RUNTIME_FACTOR = 2.0
RUNTIME_GRACE_S = 0.1


def suite_jobs(
    benches: Sequence[str] = SUITE_BENCHES,
    algorithms: Sequence[str] = SUITE_ALGORITHMS,
    constraint: str = SUITE_CONSTRAINT,
) -> List[JobSpec]:
    """The suite as batch-engine jobs, bench-major order."""
    return registry_sweep(
        names=list(benches),
        constraints=(constraint,),
        algorithms=[canonical_algorithm(a) for a in algorithms],
    )


@dataclass
class BenchReport:
    """Results of one suite run plus enough context to re-check it."""

    results: List[JobResult]
    benches: Tuple[str, ...] = SUITE_BENCHES
    algorithms: Tuple[str, ...] = SUITE_ALGORITHMS
    constraint: str = SUITE_CONSTRAINT
    wall_time_s: float = 0.0
    cache_stats: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": RESULTS_FORMAT,
            "suite": {
                "benches": list(self.benches),
                "algorithms": list(self.algorithms),
                "constraint": self.constraint,
            },
            "wall_time_s": self.wall_time_s,
            "cache_stats": dict(self.cache_stats),
            "results": [result.to_dict() for result in self.results],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchReport":
        if data.get("format") != RESULTS_FORMAT:
            raise ReproError(
                f"not a {RESULTS_FORMAT} document "
                f"(format={data.get('format')!r})"
            )
        suite = data.get("suite", {})
        return cls(
            results=[
                JobResult.from_dict(entry)
                for entry in data.get("results", [])
            ],
            benches=tuple(suite.get("benches", SUITE_BENCHES)),
            algorithms=tuple(suite.get("algorithms", SUITE_ALGORITHMS)),
            constraint=suite.get("constraint", SUITE_CONSTRAINT),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            cache_stats=dict(data.get("cache_stats", {})),
        )

    def table(self) -> str:
        rows = [
            (
                result.graph,
                result.algorithm,
                result.resources,
                result.length,
                f"{result.runtime_s * 1000:.2f}",
                "hit" if result.cached else "",
            )
            for result in self.results
        ]
        return render_table(
            ("bench", "algorithm", "resources", "length", "ms", "cache"),
            rows,
            title=f"bench suite ({self.constraint})",
        )


def run_suite(
    workers: int = 1,
    cache_dir: Union[str, Path, None] = None,
    benches: Sequence[str] = SUITE_BENCHES,
    algorithms: Sequence[str] = SUITE_ALGORITHMS,
    constraint: str = SUITE_CONSTRAINT,
    engine: Optional[BatchEngine] = None,
    capture_schedules: bool = False,
    max_cache_entries: Optional[int] = None,
) -> BenchReport:
    """Run the suite through the batch engine and collect a report."""
    if engine is not None and (
        workers != 1
        or cache_dir is not None
        or capture_schedules
        or max_cache_entries is not None
    ):
        raise ValueError(
            "workers/cache_dir/capture_schedules/max_cache_entries "
            "configure an engine built here; set them on the "
            "BatchEngine you pass in instead"
        )
    if engine is None:
        engine = BatchEngine(
            workers=workers,
            cache_dir=cache_dir,
            capture_schedules=capture_schedules,
            max_cache_entries=max_cache_entries,
        )
    jobs = suite_jobs(benches, algorithms, constraint)
    started = time.perf_counter()
    results = engine.run(jobs)
    wall = time.perf_counter() - started
    return BenchReport(
        results=results,
        benches=tuple(benches),
        algorithms=tuple(algorithms),
        constraint=constraint,
        wall_time_s=wall,
        cache_stats=engine.cache.stats(),
    )


def load_report(path: Union[str, Path]) -> BenchReport:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReproError(f"cannot read bench results {path}: {exc}")
    except ValueError as exc:
        raise ReproError(f"malformed bench results {path}: {exc}")
    return BenchReport.from_dict(data)


def check_report(
    current: BenchReport,
    baseline: BenchReport,
    runtime_factor: float = RUNTIME_FACTOR,
    runtime_grace_s: float = RUNTIME_GRACE_S,
) -> List[str]:
    """Regressions of ``current`` against ``baseline`` (empty = pass).

    Schedule lengths compare exactly.  Runtimes compare after dividing
    out the suite's median per-cell speed ratio, so a baseline recorded
    on different hardware (or under different load) still gates the
    cell that got disproportionately slower.
    """
    cells = {
        (r.graph, r.algorithm, r.resources): r for r in current.results
    }
    problems: List[str] = []
    matched: List[tuple] = []
    for base in baseline.results:
        cell = (base.graph, base.algorithm, base.resources)
        label = f"{base.graph}/{base.algorithm} on {base.resources}"
        now = cells.get(cell)
        if now is None:
            problems.append(f"{label}: missing from current results")
            continue
        if now.length > base.length:
            problems.append(
                f"{label}: schedule length regressed "
                f"{base.length} -> {now.length}"
            )
        matched.append((label, base, now))

    ratios = sorted(
        now.runtime_s / base.runtime_s
        for _, base, now in matched
        if base.runtime_s > 0
    )
    speed = ratios[len(ratios) // 2] if ratios else 1.0
    for label, base, now in matched:
        expected = base.runtime_s * speed
        blowup = now.runtime_s > expected * runtime_factor
        if blowup and now.runtime_s - expected > runtime_grace_s:
            problems.append(
                f"{label}: runtime blew up "
                f"{base.runtime_s:.4f}s -> {now.runtime_s:.4f}s "
                f"(>{runtime_factor:g}x after {speed:.2f}x speed "
                f"normalization)"
            )
    return problems
