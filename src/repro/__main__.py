"""Command-line entry point: ``python -m repro <command>`` (or the
``repro`` console script once the package is installed).

``_COMMANDS`` is the one command table.  Each name maps to the
``module:function`` that runs it and the line the usage text shows.
The module is imported only when its command is dispatched, so
``repro batch`` never loads the serving stack.  Each command parses
its own arguments (``repro <command> --help``) and returns the exit
code.
"""

from __future__ import annotations

import importlib
import sys

from repro.errors import ReproError

_COMMANDS = {
    "figure3": (
        "repro.experiments.figure3:main",
        "the paper's Figure 3 results table",
    ),
    "figure1": ("repro.experiments.figure1:main", "the Figure 1 walkthrough"),
    "complexity": (
        "repro.experiments.complexity:main",
        "Theorem 3 linearity measurements",
    ),
    "coupling": (
        "repro.experiments.phase_coupling:main",
        "phase-coupling comparison (hard patch vs soft refine)",
    ),
    "ablation": (
        "repro.experiments.meta_ablation:main",
        "meta-schedule sensitivity on random DAGs",
    ),
    "benchmarks": (
        "repro.graphs.cli:cmd_benchmarks",
        "list the shipped benchmark graphs",
    ),
    "schedule": (
        "repro.graphs.cli:cmd_schedule",
        'schedule one benchmark: schedule HAL "2+/-,2*" meta2',
    ),
    "batch": (
        "repro.engine.cli:cmd_batch",
        "sweep jobs through the parallel batch engine",
    ),
    "bench": (
        "repro.engine.cli:cmd_bench",
        "run the unified benchmark suite (--check gates CI)",
    ),
    "serve": (
        "repro.serve.cli:cmd_serve",
        "run the async scheduling service (JSON over HTTP)",
    ),
    "dispatch": (
        "repro.dispatch.cli:cmd_dispatch",
        "route jobs across serve replicas (consistent hash, failover)",
    ),
    "hier": (
        "repro.hier.cli:cmd_hier",
        "hierarchically schedule one large graph",
    ),
    "improve": (
        "repro.improve.cli:cmd_improve",
        "anytime-improve a cached result toward the proved optimum",
    ),
}


_USAGE = """\
usage: repro <command> [args]  (repro <command> --help for its args)

{commands}

Exit codes: 0 success, 1 benchmark regression (bench --check),
2 usage or input error (unknown command, unknown benchmark,
malformed resource specification, ...)."""


def _usage(stream) -> None:
    commands = "\n".join(
        f"  {name:<12} {summary}" for name, (_, summary) in _COMMANDS.items()
    )
    print(_USAGE.format(commands=commands), file=stream)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        _usage(sys.stdout)
        return 0
    if argv[0] not in _COMMANDS:
        print(f"error: unknown command {argv[0]!r}", file=sys.stderr)
        _usage(sys.stderr)
        return 2
    module, _, function = _COMMANDS[argv[0]][0].partition(":")
    command = getattr(importlib.import_module(module), function)
    try:
        return command(argv[1:])
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
