#!/usr/bin/env python
"""Microbenchmarks for the incremental scheduling kernels.

Times the three kernels this layer introduced against their
full-recompute references, on one seeded random DAG:

* ``graph_view`` — building a fresh CSR :class:`~repro.ir.GraphView`
  (plus diameter) per query vs. the cached ``dfg.view()`` path every
  analysis now rides on.
* ``frames`` — a full ASAP/ALAP window recompute after every fixing
  decision (the pre-PR ``_frames`` sweep) vs. the delta-propagating
  :class:`~repro.scheduling.FrameEngine`.
* ``fds`` — the reference force-directed scheduler vs. the
  prefix-sum/incremental-frames implementation, asserting the two
  produce op-for-op identical schedules while timing them.
* ``threaded`` — the paper's scheduler with incremental labels vs. the
  same run forcing a full relabel before every insertion, asserting
  identical start times.

Each run appends one entry to a ``repro-perf-v1`` trajectory document
(default ``BENCH_perf.json``) so kernel performance is tracked across
commits.  The ``--min-*-speedup`` flags turn the run into a regression
gate: speedup *ratios* are machine-independent, so CI can fail on a
gross (>3x would-be) slowdown of the incremental kernels without
pinning absolute wall times.

Usage::

    python benchmarks/perf_kernels.py                      # record
    python benchmarks/perf_kernels.py --nodes 200 \
        --min-fds-speedup 10 --min-frames-speedup 3 \
        --min-threaded-speedup 1.3                         # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a source checkout without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import ThreadedScheduler
from repro.graphs.random_dags import random_hier_dag, random_layered_dag
from repro.ir import GraphView
from repro.ir.analysis import diameter
from repro.scheduling import (
    FrameEngine,
    force_directed_schedule,
    force_directed_schedule_reference,
    list_schedule,
)
from repro.scheduling.force_directed import _frames
from repro.scheduling.list_scheduler import ListPriority
from repro.scheduling.resources import ResourceSet

PERF_FORMAT = "repro-perf-v1"
DEFAULT_RESOURCES = "2+/-,2*"


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


def bench_graph_view(dfg, reps: int):
    """Fresh CSR build + diameter per query vs. the cached view."""

    def rebuild():
        for _ in range(reps):
            GraphView(dfg).diameter()

    def cached():
        for _ in range(reps):
            dfg.view().diameter()

    dfg.touch()  # both start cold
    rebuild_s, _ = _timed(rebuild)
    dfg.touch()
    cached_s, _ = _timed(cached)
    return {
        "reps": reps,
        "rebuild_s": rebuild_s,
        "cached_s": cached_s,
        "speedup": rebuild_s / cached_s if cached_s > 0 else float("inf"),
    }


def bench_frames(dfg, latency: int):
    """Full window recompute per fix vs. delta propagation.

    Both sides fix every op at its then-current ASAP in topological
    order — the same narrowing trajectory an FDS sweep follows — and
    must end with identical windows.
    """
    order = dfg.topological_order()

    def full():
        fixed = {}
        frames = _frames(dfg, latency, fixed)
        for node_id in order:
            fixed[node_id] = frames[node_id][0]
            frames = _frames(dfg, latency, fixed)
        return frames

    def incremental():
        engine = FrameEngine(dfg, latency)
        for node_id in order:
            engine.fix(node_id, engine.frame(node_id)[0])
        return engine.frames_dict()

    full_s, full_frames = _timed(full)
    incremental_s, inc_frames = _timed(incremental)
    assert inc_frames == full_frames, "incremental frames diverged"
    return {
        "fixes": len(order),
        "full_s": full_s,
        "incremental_s": incremental_s,
        "speedup": full_s / incremental_s
        if incremental_s > 0
        else float("inf"),
    }


def bench_fds(dfg, resources, latency: int):
    """Reference vs. incremental FDS; schedules must match op-for-op."""
    incremental_s, fast = _timed(
        lambda: force_directed_schedule(dfg, resources, latency=latency)
    )
    reference_s, ref = _timed(
        lambda: force_directed_schedule_reference(
            dfg, resources, latency=latency
        )
    )
    assert fast.start_times == ref.start_times, (
        "incremental FDS diverged from the reference schedule"
    )
    return {
        "latency": latency,
        "length": fast.length,
        "reference_s": reference_s,
        "incremental_s": incremental_s,
        "speedup": reference_s / incremental_s
        if incremental_s > 0
        else float("inf"),
    }


def bench_threaded(dfg, resources):
    """Incremental vs. full relabelling in the threaded scheduler.

    Both sides feed the default meta schedule through
    :class:`~repro.core.ThreadedScheduler`; the reference forces
    ``label(force=True)`` before every ``schedule()``, the full sweep
    the kernel ran per insertion before its labels went incremental.
    Only ``run()`` is timed; the hardened start times must match
    op-for-op.
    """

    def incremental():
        return ThreadedScheduler(dfg, resources=resources).run()

    def full_relabel():
        scheduler = ThreadedScheduler(dfg, resources=resources)
        for node_id in scheduler.meta(dfg):
            scheduler.state.label(force=True)
            scheduler.state.schedule(node_id)
        return scheduler

    # Best of three per side: one run is tens of milliseconds, short
    # enough for scheduler noise to swing a single-shot ratio.
    incremental_s = min(_timed(incremental)[0] for _ in range(3))
    full_s = min(_timed(full_relabel)[0] for _ in range(3))
    fast = incremental().harden()
    ref = full_relabel().harden()
    assert fast.start_times == ref.start_times, (
        "incremental threaded labels diverged from the full relabel"
    )
    return {
        "length": fast.length,
        "full_s": full_s,
        "incremental_s": incremental_s,
        "speedup": full_s / incremental_s
        if incremental_s > 0
        else float("inf"),
    }


def bench_hier(num_nodes: int, seed: int, resources_text: str):
    """Orchestration overhead of hierarchical scheduling.

    Times one local ``hier_schedule`` run on a seeded blocky DAG and
    splits the wall time into subgraph *scheduling* (the backend) and
    *orchestration* (partitioning, window derivation, stitching,
    validation).  The gate pins the orchestration-to-scheduling
    *ratio*, which is machine-independent like the kernel speedups.
    """
    from repro.hier.orchestrator import LocalBackend, hier_schedule

    class TimedBackend(LocalBackend):
        def __init__(self):
            self.seconds = 0.0

        def run(self, specs):
            started = time.perf_counter()
            results = super().run(specs)
            self.seconds += time.perf_counter() - started
            return results

    dfg = random_hier_dag(num_nodes, seed=seed)
    backend = TimedBackend()
    total_s, result = _timed(
        lambda: hier_schedule(dfg, resources_text, backend=backend)
    )
    schedule_s = backend.seconds
    overhead_s = max(0.0, total_s - schedule_s)
    return {
        "nodes": num_nodes,
        "seed": seed,
        "parts": result.num_partitions,
        "cut": result.partition.cut_size,
        "rounds": result.rounds,
        "length": result.schedule.length,
        "total_s": total_s,
        "schedule_s": schedule_s,
        "overhead_s": overhead_s,
        "overhead_ratio": overhead_s / schedule_s
        if schedule_s > 0
        else float("inf"),
    }


def bench_anytime(graph_name: str, resources_text: str):
    """Incumbent-vs-time trajectory of the anytime exact tier.

    Seeds an engine with the force-directed result (what a serving
    replica's cache would hold), then runs one ``bnb-anytime``
    improver to proof, recording every incumbent with its wall-clock
    offset.  The recorded trajectory documents the tier's anytime
    profile — how quickly the incumbent drops below the heuristic
    seed — and the ``improvement`` ratio (seed length over proved
    length) is machine-independent, so CI can put a generous floor
    under it without pinning wall times.
    """
    from repro.engine.batch import BatchEngine
    from repro.engine.job import JobSpec
    from repro.improve import Improver

    engine = BatchEngine(capture_schedules=True)
    engine.submit(
        [JobSpec.make(graph_name, resources_text, "force-directed")]
    )
    improver = Improver(
        engine, graph_name, resources_text, slice_nodes=1000
    )
    started = time.perf_counter()
    points = []

    def record(event):
        if event["type"] in ("incumbent", "optimal"):
            points.append(
                {
                    "t_s": time.perf_counter() - started,
                    "nodes": event["nodes"],
                    "length": event["length"],
                    "bound": event["bound"],
                }
            )

    summary = improver.run(on_event=record)
    total_s = time.perf_counter() - started
    return {
        "graph": graph_name,
        "resources": resources_text,
        "seed_length": summary["seed_length"],
        "length": summary["length"],
        "proved": summary["proved"],
        "nodes": summary["nodes"],
        "total_s": total_s,
        "improvement": summary["seed_length"] / summary["length"],
        "trajectory": points,
    }


def bench_scenarios():
    """One job per constraint-scenario mode, on its registry workload.

    Times a memory-banked, an I/O-pinned, and a reliability-hardened
    job through a fresh engine and records the machine-independent
    facts next to the wall times: the banked-over-flat length stretch
    (banking can only delay memory traffic), the bnb proof of the
    pinned schedule, and the op count the TMR transform inserted.
    """
    from repro.engine.batch import BatchEngine
    from repro.engine.job import JobSpec
    from repro.graphs.scenario import IOPIN_PINS, TMRMARK_OPS

    engine = BatchEngine(capture_schedules=True)

    flat = engine.run(
        [JobSpec.make("MEMBANK", "2+/-,2*,2mem", "list")]
    )[0]
    memory_s, memory = _timed(
        lambda: engine.run(
            [
                JobSpec.make(
                    "MEMBANK",
                    "2+/-,2*,2mem",
                    "list",
                    scenario={"mode": "memory", "banks": 2, "ports": 1},
                )
            ]
        )[0]
    )
    io_s, io = _timed(
        lambda: engine.run(
            [
                JobSpec.make(
                    "IOPIN",
                    DEFAULT_RESOURCES,
                    "bnb-anytime",
                    scenario={"mode": "io", "pins": dict(IOPIN_PINS)},
                )
            ]
        )[0]
    )
    reliability_s, reliability = _timed(
        lambda: engine.run(
            [
                JobSpec.make(
                    "TMRMARK",
                    DEFAULT_RESOURCES,
                    "list",
                    scenario={
                        "mode": "reliability",
                        "ops": list(TMRMARK_OPS),
                    },
                )
            ]
        )[0]
    )
    for result in (flat, memory, io, reliability):
        assert result.error is None, (
            f"scenario bench job failed: {result.error}"
        )
    io_meta = (io.artifact or {}).get("meta", {})
    return {
        "memory": {
            "length": memory.length,
            "flat_length": flat.length,
            "stretch": memory.length / flat.length,
            "seconds": memory_s,
        },
        "io": {
            "length": io.length,
            "proved": bool(io_meta.get("bnb", {}).get("proved")),
            "seconds": io_s,
        },
        "reliability": {
            "length": reliability.length,
            "inserted": len((reliability.artifact or {})["inserted"]),
            "seconds": reliability_s,
        },
    }


def bench_list(dfg, resources):
    ready_s, ready = _timed(
        lambda: list_schedule(dfg, resources, ListPriority.READY_ORDER)
    )
    mobility_s, mob = _timed(
        lambda: list_schedule(dfg, resources, ListPriority.MOBILITY)
    )
    return {
        "ready_s": ready_s,
        "ready_length": ready.length,
        "mobility_s": mobility_s,
        "mobility_length": mob.length,
    }


def load_trajectory(path: Path):
    if not path.exists():
        return {"format": PERF_FORMAT, "entries": []}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SystemExit(f"error: malformed trajectory {path}: {exc}")
    if data.get("format") != PERF_FORMAT:
        raise SystemExit(
            f"error: {path} is not a {PERF_FORMAT} document "
            f"(format={data.get('format')!r})"
        )
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the incremental scheduling kernels against "
        "their full-recompute references."
    )
    parser.add_argument(
        "--nodes", type=int, default=200, metavar="N",
        help="random-DAG size (default 200)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="random-DAG seed (default 0)",
    )
    parser.add_argument(
        "--slack", type=int, default=3, metavar="K",
        help="FDS latency slack over the critical path (default 3)",
    )
    parser.add_argument(
        "--view-reps", type=int, default=100, metavar="R",
        help="repetitions for the graph-view timing (default 100)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default="BENCH_perf.json",
        help="trajectory document to append to (default BENCH_perf.json)",
    )
    parser.add_argument(
        "--no-json", action="store_true",
        help="measure and gate only; do not touch the trajectory file",
    )
    parser.add_argument(
        "--min-fds-speedup", type=float, default=None, metavar="X",
        help="exit 1 unless incremental FDS is at least X times faster "
        "than the reference",
    )
    parser.add_argument(
        "--min-frames-speedup", type=float, default=None, metavar="X",
        help="exit 1 unless incremental frames are at least X times "
        "faster than full recompute",
    )
    parser.add_argument(
        "--min-threaded-speedup", type=float, default=None, metavar="X",
        help="exit 1 unless incremental threaded labels are at least X "
        "times faster than a full relabel per insertion",
    )
    parser.add_argument(
        "--anytime-graph", default="EF", metavar="BENCH",
        help="registry graph for the anytime-tier trajectory cell "
        "(default EF; it improves on its heuristic seed and proves "
        "in well under a second)",
    )
    parser.add_argument(
        "--min-anytime-improvement", type=float, default=1.0, metavar="X",
        help="exit 1 unless the anytime tier proves an optimum and its "
        "seed-over-proved length ratio is at least X (default 1.0 — a "
        "generous floor: the proof must never be worse than the seed)",
    )
    parser.add_argument(
        "--max-memory-stretch", type=float, default=None, metavar="X",
        help="exit 1 when the banked-memory scenario schedule is more "
        "than X times the flat-memory length (lengths are "
        "deterministic, so this gate is machine-independent; 3 is a "
        "generous floor)",
    )
    parser.add_argument(
        "--hier-nodes", type=int, default=None, metavar="N",
        help="also time hierarchical scheduling on an N-op blocky DAG "
        "(off by default; this cell is the slow one)",
    )
    parser.add_argument(
        "--max-hier-overhead", type=float, default=None, metavar="X",
        help="with --hier-nodes: exit 1 when partition+stitch overhead "
        "exceeds X times the subgraph scheduling time",
    )
    opts = parser.parse_args(argv)
    if opts.max_hier_overhead is not None and opts.hier_nodes is None:
        parser.error("--max-hier-overhead needs --hier-nodes")

    dfg = random_layered_dag(opts.nodes, seed=opts.seed)
    resources = ResourceSet.parse(DEFAULT_RESOURCES)
    latency = diameter(dfg) + opts.slack

    print(
        f"perf_kernels: {dfg.name} ({dfg.num_nodes} ops, "
        f"{dfg.num_edges} edges, latency {latency})"
    )
    entry = {
        "recorded_unix": int(time.time()),
        "python": sys.version.split()[0],
        "nodes": opts.nodes,
        "seed": opts.seed,
        "resources": DEFAULT_RESOURCES,
        "graph_view": bench_graph_view(dfg, opts.view_reps),
        "frames": bench_frames(dfg, latency),
        "fds": bench_fds(dfg, resources, latency),
        "threaded": bench_threaded(dfg, resources),
        "list": bench_list(dfg, resources),
        "anytime": bench_anytime(opts.anytime_graph, DEFAULT_RESOURCES),
        "scenarios": bench_scenarios(),
    }
    for kernel in ("graph_view", "frames", "fds", "threaded"):
        data = entry[kernel]
        detail = {
            key: round(value, 5) if isinstance(value, float) else value
            for key, value in data.items()
            if key != "speedup"
        }
        print(
            f"  {kernel:10s}: {data['speedup']:8.1f}x speedup "
            f"({json.dumps(detail)})"
        )
    print(
        f"  list      : ready {entry['list']['ready_s'] * 1000:.2f} ms, "
        f"mobility {entry['list']['mobility_s'] * 1000:.2f} ms"
    )
    anytime = entry["anytime"]
    print(
        f"  anytime   : {anytime['graph']} seed {anytime['seed_length']} "
        f"-> {'proved ' if anytime['proved'] else ''}{anytime['length']} "
        f"({anytime['improvement']:.2f}x) in {anytime['nodes']} nodes / "
        f"{anytime['total_s'] * 1000:.2f} ms, "
        f"{len(anytime['trajectory'])} trajectory points"
    )
    scenarios = entry["scenarios"]
    print(
        f"  scenarios : memory {scenarios['memory']['length']} "
        f"({scenarios['memory']['stretch']:.2f}x of flat), "
        f"io {scenarios['io']['length']}"
        f"{' proved' if scenarios['io']['proved'] else ''}, "
        f"reliability {scenarios['reliability']['length']} "
        f"(+{scenarios['reliability']['inserted']} inserted ops)"
    )
    if opts.hier_nodes is not None:
        entry["hier"] = hier = bench_hier(
            opts.hier_nodes, opts.seed, DEFAULT_RESOURCES
        )
        print(
            f"  hier      : {hier['nodes']} ops -> {hier['parts']} parts, "
            f"{hier['rounds']} rounds, length {hier['length']}; "
            f"schedule {hier['schedule_s']:.2f}s + orchestration "
            f"{hier['overhead_s']:.2f}s "
            f"({hier['overhead_ratio']:.2f}x ratio)"
        )

    if not opts.no_json:
        path = Path(opts.json)
        trajectory = load_trajectory(path)
        trajectory["entries"].append(entry)
        path.write_text(
            json.dumps(trajectory, indent=2) + "\n", encoding="utf-8"
        )
        print(f"appended entry {len(trajectory['entries'])} to {path}")

    failures = []
    if (
        opts.min_fds_speedup is not None
        and entry["fds"]["speedup"] < opts.min_fds_speedup
    ):
        failures.append(
            f"fds speedup {entry['fds']['speedup']:.1f}x below the "
            f"{opts.min_fds_speedup:g}x gate"
        )
    if (
        opts.min_frames_speedup is not None
        and entry["frames"]["speedup"] < opts.min_frames_speedup
    ):
        failures.append(
            f"frames speedup {entry['frames']['speedup']:.1f}x below "
            f"the {opts.min_frames_speedup:g}x gate"
        )
    if (
        opts.min_threaded_speedup is not None
        and entry["threaded"]["speedup"] < opts.min_threaded_speedup
    ):
        failures.append(
            f"threaded speedup {entry['threaded']['speedup']:.1f}x below "
            f"the {opts.min_threaded_speedup:g}x gate"
        )
    if not entry["anytime"]["proved"]:
        failures.append(
            f"anytime tier failed to prove {opts.anytime_graph} optimal"
        )
    elif entry["anytime"]["improvement"] < opts.min_anytime_improvement:
        failures.append(
            f"anytime improvement {entry['anytime']['improvement']:.2f}x "
            f"below the {opts.min_anytime_improvement:g}x floor"
        )
    if not entry["scenarios"]["io"]["proved"]:
        failures.append(
            "bnb failed to prove the I/O-pinned scenario schedule"
        )
    if (
        opts.max_memory_stretch is not None
        and entry["scenarios"]["memory"]["stretch"]
        > opts.max_memory_stretch
    ):
        failures.append(
            f"banked-memory stretch "
            f"{entry['scenarios']['memory']['stretch']:.2f}x above the "
            f"{opts.max_memory_stretch:g}x gate"
        )
    if (
        opts.max_hier_overhead is not None
        and entry["hier"]["overhead_ratio"] > opts.max_hier_overhead
    ):
        failures.append(
            f"hier orchestration overhead "
            f"{entry['hier']['overhead_ratio']:.2f}x above the "
            f"{opts.max_hier_overhead:g}x gate"
        )
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
