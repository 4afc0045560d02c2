"""Command-line entry point: ``python -m repro <command>`` (or the
``repro`` console script once the package is installed).

Commands map one-to-one onto the experiment harnesses plus the batch
engine and a couple of utilities:

=============  ====================================================
figure3        the paper's Figure 3 results table
figure1        the Figure 1 walkthrough
complexity     Theorem 3 linearity measurements
coupling       phase-coupling comparison (hard patch vs soft refine)
ablation       meta-schedule sensitivity on random DAGs
benchmarks     list the shipped benchmark graphs
schedule       schedule one benchmark: ``schedule HAL "2+/-,2*" meta2``
batch          sweep jobs through the parallel batch engine
bench          run the unified benchmark suite (``--check`` gates CI)
serve          run the async scheduling service (JSON over HTTP)
dispatch       route jobs across several serve replicas
               (consistent-hash on the cache key, with failover)
hier           hierarchically schedule one large graph (partition,
               fan out window-constrained jobs, stitch, iterate)
improve        anytime-improve a cached result toward the proved
               optimum (interruptible branch-and-bound)
=============  ====================================================

Exit codes: 0 success, 1 benchmark regression (``bench --check``),
2 usage or input error (unknown command, unknown benchmark, malformed
resource specification, ...).
"""

from __future__ import annotations

import sys

from repro.errors import ReproError


def _cmd_benchmarks(_args) -> int:
    from repro.graphs import list_graphs

    for info in list_graphs():
        tag = "paper" if info.in_paper else "extra"
        print(f"{info.name:<6} [{tag}] {info.description}")
    return 0


def _cmd_schedule(args) -> int:
    from repro.core.scheduler import threaded_schedule
    from repro.graphs import get_graph
    from repro.scheduling.resources import DEFAULT_RESOURCES, ResourceSet

    if not args:
        print(
            "usage: python -m repro schedule <BENCH> "
            f'["{DEFAULT_RESOURCES}"] [meta2]',
            file=sys.stderr,
        )
        return 2
    name = args[0]
    constraint = args[1] if len(args) > 1 else DEFAULT_RESOURCES
    meta = args[2] if len(args) > 2 else "meta2"
    graph = get_graph(name)
    schedule = threaded_schedule(
        graph, ResourceSet.parse(constraint), meta=meta
    )
    print(
        f"{name} on {constraint} with {meta}: "
        f"{schedule.length} control steps"
    )
    print(schedule.table())
    return 0


def _cmd_figure3(_args) -> int:
    from repro.experiments import figure3

    figure3.main()
    return 0


def _cmd_figure1(_args) -> int:
    from repro.experiments import figure1

    figure1.main()
    return 0


def _cmd_complexity(_args) -> int:
    from repro.experiments import complexity

    complexity.main()
    return 0


def _cmd_coupling(_args) -> int:
    from repro.experiments import phase_coupling

    phase_coupling.main()
    return 0


def _cmd_ablation(_args) -> int:
    from repro.experiments import meta_ablation

    meta_ablation.main()
    return 0


def _cmd_batch(args) -> int:
    from repro.engine.cli import cmd_batch

    return cmd_batch(args)


def _cmd_bench(args) -> int:
    from repro.engine.cli import cmd_bench

    return cmd_bench(args)


def _cmd_serve(args) -> int:
    from repro.engine.cli import cmd_serve

    return cmd_serve(args)


def _cmd_dispatch(args) -> int:
    from repro.engine.cli import cmd_dispatch

    return cmd_dispatch(args)


def _cmd_hier(args) -> int:
    from repro.hier.cli import cmd_hier

    return cmd_hier(args)


def _cmd_improve(args) -> int:
    from repro.improve.cli import cmd_improve

    return cmd_improve(args)


_COMMANDS = {
    "figure3": _cmd_figure3,
    "figure1": _cmd_figure1,
    "complexity": _cmd_complexity,
    "coupling": _cmd_coupling,
    "ablation": _cmd_ablation,
    "benchmarks": _cmd_benchmarks,
    "schedule": _cmd_schedule,
    "batch": _cmd_batch,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "dispatch": _cmd_dispatch,
    "hier": _cmd_hier,
    "improve": _cmd_improve,
}


def _usage(stream) -> None:
    print(__doc__, file=stream)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        _usage(sys.stdout)
        return 0
    command = _COMMANDS.get(argv[0])
    if command is None:
        print(f"error: unknown command {argv[0]!r}", file=sys.stderr)
        _usage(sys.stderr)
        return 2
    try:
        return command(argv[1:])
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
