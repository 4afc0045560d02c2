"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses are grouped by the
subsystem that raises them.
"""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError, ValueError):
    """Raised for an out-of-range or conflicting configuration value.

    Also a :class:`ValueError`, so callers that catch the standard
    type keep working; the CLI reports it like any other
    :class:`ReproError` (exit code 2).
    """


def check_duration(name: str, value: float, allow_zero: bool = False) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a finite duration
    ``> 0`` (``>= 0`` with ``allow_zero``).

    A bare ``value <= 0`` test is not enough: NaN fails every
    comparison, so it would pass, and so would infinity.
    """
    if math.isfinite(value) and (value > 0 or (allow_zero and value == 0)):
        return
    bound = ">= 0" if allow_zero else "> 0"
    raise ConfigError(f"{name} must be a finite number {bound}, got {value}")


class GraphError(ReproError):
    """Raised for malformed dataflow / precedence graphs."""


class CycleError(GraphError):
    """Raised when a graph that must be acyclic contains a cycle."""

    def __init__(self, cycle=None, message=None):
        self.cycle = list(cycle) if cycle is not None else None
        if message is None:
            if self.cycle:
                message = "graph contains a cycle: " + " -> ".join(
                    str(n) for n in self.cycle
                )
            else:
                message = "graph contains a cycle"
        super().__init__(message)


class UnknownNodeError(GraphError):
    """Raised when an operation refers to a node that is not in the graph."""

    def __init__(self, node_id):
        self.node_id = node_id
        super().__init__(f"unknown node: {node_id!r}")


class DuplicateNodeError(GraphError):
    """Raised when adding a node whose id already exists."""

    def __init__(self, node_id):
        self.node_id = node_id
        super().__init__(f"duplicate node id: {node_id!r}")


class ParseError(ReproError):
    """Raised by the behavioral frontend on malformed source text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceError(ReproError):
    """Raised for invalid resource constraint specifications."""


class SchedulingError(ReproError):
    """Raised when a scheduler cannot produce a valid schedule."""


class InfeasibleError(SchedulingError):
    """Raised when constraints make any schedule impossible."""


class ThreadedGraphError(ReproError):
    """Raised when a threaded-graph operation violates its invariants."""


class NoValidPositionError(ThreadedGraphError):
    """Raised when an operation has no acyclic insertion position.

    This cannot happen for compatible thread sets that include at least
    one thread accepting the operation (the position adjacent to the sink
    sentinel of any compatible thread is always valid); it indicates either
    an incompatible resource model or a corrupted state.
    """


class AllocationError(ReproError):
    """Raised by register allocation / binding when constraints fail."""


class PhysicalError(ReproError):
    """Raised by the floorplanner / wire model."""


class RTLError(ReproError):
    """Raised by controller / datapath generation."""
