"""The scenario constraint model: one JobSpec field, three modes.

A *scenario* enriches the flat ``(graph, resources, algorithm)`` job
with one of three constraint models from the retrieved HLS literature,
all riding a single normalized, hashable spec field:

``memory``
    Banked memories with per-bank port limits (memory-aware HLS).
    ``{"mode": "memory", "banks": B, "ports": P}`` lowers the spec's
    resource set through
    :meth:`~repro.scheduling.resources.ResourceSet.with_banked_mem`,
    so the schedulers see ``B`` banks of ``P`` ports and account
    per-bank access conflicts (list scheduler enforces, FDS
    distribution graphs balance, the validator and simulator check).

``io``
    Fixed I/O timing (HLS under I/O timing constraints).
    ``{"mode": "io", "pins": {op: step}}`` lowers onto the existing
    ``JobSpec.windows`` machinery as degenerate ``lo == hi`` pins, so
    serve/dispatch/hier reuse the window plumbing verbatim.

``reliability``
    Selective triple-modular redundancy (reliability-centric HLS).
    ``{"mode": "reliability", "ops": [...]}`` applies
    :func:`repro.ir.reliability.apply_reliability` to the built graph
    before scheduling; replicas and voters land in the artifact's
    ``inserted`` list and the hardening summary in its meta.

Normalization (:func:`normalize_scenario`) follows the
``windows``/``budget`` discipline exactly: the canonical form is a
sorted tuple of pairs (hashable, so the coalescer can key on the
spec), validation raises :class:`~repro.errors.SchedulingError`, and
an absent scenario contributes *nothing* to the cache key — historical
keys stay byte-identical (golden-tested).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.algorithms import require_capability
from repro.errors import SchedulingError
from repro.ir.dfg import DataFlowGraph, check_steps
from repro.ir.reliability import apply_reliability
from repro.scheduling.resources import (
    MAX_UNITS,
    ResourceSet,
    bank_assignment,
)

#: Scenario in its canonical hashable form: sorted ``(field, value)``
#: pairs; nested collections (io pins, reliability ops) are sorted
#: tuples too.
Scenario = Tuple[Tuple[str, Any], ...]

#: Every recognized scenario mode (the ``/metrics`` counter namespace).
SCENARIO_MODES = ("io", "memory", "reliability")

_MODE_FIELDS = {
    "memory": frozenset({"mode", "banks", "ports"}),
    "io": frozenset({"mode", "pins"}),
    "reliability": frozenset({"mode", "ops"}),
}


def constraint_pairs(value: Any, shape: str) -> List[Tuple[Any, Any]]:
    """The ``(key, value)`` items of a mapping or an iterable of pairs.

    Any other shape — a string, a scalar, an item that is not a pair —
    raises :class:`SchedulingError` reading ``"<shape>, got <value>"``.
    """
    if isinstance(value, Mapping):
        return list(value.items())
    if not isinstance(value, (str, bytes)):
        try:
            return [(key, item) for key, item in value]
        except (TypeError, ValueError):
            pass
    raise SchedulingError(f"{shape}, got {value!r}")


def sorted_pairs(pairs, what: str) -> Tuple[Tuple[str, Any], ...]:
    """``pairs`` sorted by key; a repeated key raises
    :class:`SchedulingError` naming ``what``."""
    ordered = sorted(pairs)
    for prev, cur in zip(ordered, ordered[1:]):
        if prev[0] == cur[0]:
            raise SchedulingError(f"duplicate {what} {cur[0]!r}")
    return tuple(ordered)


def _positive_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchedulingError(
            f"scenario field {what!r} must be an integer, got {value!r}"
        )
    if value < 1:
        raise SchedulingError(
            f"scenario field {what!r} must be >= 1, got {value}"
        )
    return value


def normalize_scenario(scenario, algorithm: str) -> Scenario:
    """Validate and canonicalize a scenario for a spec.

    Accepts a ``{"mode": ..., ...}`` mapping or an iterable of pairs
    (the already-normalized tuple form round-trips) and returns the
    sorted, hashable tuple form; an empty one is no scenario.  Raises
    :class:`SchedulingError` on any malformed shape or value, unknown
    modes/fields, or an algorithm the mode does not support — ``io``
    needs the ``windows`` capability, ``memory`` the ``banked_mem`` one
    (see :data:`~repro.engine.algorithms.ALGORITHMS`); ``reliability``
    is a pure graph transform and rides any algorithm.  Memory ports
    are bounded by :data:`~repro.scheduling.resources.MAX_UNITS` and io
    pins like window bounds (:func:`~repro.ir.dfg.check_steps`).
    """
    if not scenario:
        return ()
    data = {
        str(field): value
        for field, value in constraint_pairs(
            scenario, "scenario must be a mapping with a 'mode' field"
        )
    }
    mode = data.get("mode")
    if mode not in SCENARIO_MODES:
        known = ", ".join(SCENARIO_MODES)
        raise SchedulingError(
            f"unknown scenario mode {mode!r}; known: {known}"
        )
    allowed = _MODE_FIELDS[mode]
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SchedulingError(
            f"unknown scenario field(s) for mode {mode!r}: "
            f"{', '.join(unknown)}; known: {', '.join(sorted(allowed))}"
        )

    if mode == "memory":
        require_capability(
            algorithm,
            "banked_mem",
            "algorithm {algorithm!r} does not account banked-memory "
            "conflicts; memory-capable algorithms: {known}",
        )
        banks = _positive_int(data.get("banks"), "banks")
        ports = _positive_int(data.get("ports"), "ports")
        if banks * ports > MAX_UNITS:
            raise SchedulingError(
                f"memory scenario needs banks*ports <= {MAX_UNITS}, "
                f"got {banks}*{ports}"
            )
        return (("banks", banks), ("mode", "memory"), ("ports", ports))

    if mode == "io":
        require_capability(
            algorithm,
            "windows",
            "algorithm {algorithm!r} does not support window "
            "constraints, which the io scenario lowers onto; "
            "window-capable algorithms: {known}",
        )
        pins = []
        for op, step in constraint_pairs(
            data.get("pins") or (),
            "scenario field 'pins' must map op ids to steps",
        ):
            check_steps(f"io pin for {op!r}", step, SchedulingError)
            pins.append((str(op), step))
        if not pins:
            raise SchedulingError("io scenario pinned no ops")
        return (("mode", "io"), ("pins", sorted_pairs(pins, "io pin for op")))

    # mode == "reliability"
    raw = data.get("ops")
    if isinstance(raw, (str, bytes)):
        raise SchedulingError(
            f"scenario field 'ops' must be a list of op ids, "
            f"got {raw!r}"
        )
    try:
        ops = [str(op) for op in raw or ()]
    except TypeError:
        raise SchedulingError(
            f"scenario field 'ops' must be a list of op ids, "
            f"got {raw!r}"
        ) from None
    if not ops:
        raise SchedulingError("reliability scenario marked no ops")
    ops.sort()
    for prev, cur in zip(ops, ops[1:]):
        if prev == cur:
            raise SchedulingError(
                f"duplicate reliability op {cur!r}"
            )
    return (("mode", "reliability"), ("ops", tuple(ops)))


def scenario_mode(scenario: Scenario) -> Optional[str]:
    """The mode of a normalized scenario (``None`` when absent)."""
    return dict(scenario).get("mode") if scenario else None


def scenario_key_text(scenario: Scenario) -> str:
    """The deterministic cache-key component of a normalized scenario.

    Appended by :meth:`JobSpec.cache_key` as ``|scenario:<this>`` —
    only when a scenario is present, so scenario-free specs keep their
    byte-identical historical key text.
    """
    data = dict(scenario)
    mode = data["mode"]
    if mode == "memory":
        return f"memory;banks={data['banks']};ports={data['ports']}"
    if mode == "io":
        pins = ",".join(f"{op}@{step}" for op, step in data["pins"])
        return f"io;pins={pins}"
    return "reliability;ops=" + ",".join(data["ops"])


def lower_scenario(
    scenario: Scenario,
    dfg: DataFlowGraph,
    resources: ResourceSet,
    windows: Optional[Dict[str, Tuple[int, int]]],
) -> Tuple[
    ResourceSet, Optional[Dict[str, Tuple[int, int]]], Dict[str, Any]
]:
    """Lower a normalized scenario onto a built job.

    Runs in the executing worker, after the input op set was sampled
    and before the runner: the graph is mutated in place (reliability
    replication), the resource set and window map are returned
    possibly replaced.  The third return is the JSON-safe scenario
    meta recorded on the schedule artifact (the source of the
    per-mode ``/metrics`` counters).

    Raises :class:`SchedulingError` on semantic conflicts — a
    structured per-job failure, never a batch abort.
    """
    data = dict(scenario)
    mode = data["mode"]

    if mode == "memory":
        if resources.banked_fu() is not None:
            raise SchedulingError(
                f"memory scenario conflicts with resources "
                f"{resources.notation()!r} that already declare "
                f"banked mem; use one or the other"
            )
        banks, ports = data["banks"], data["ports"]
        lowered = resources.with_banked_mem(banks, ports)
        mem_ops = len(bank_assignment(dfg, banks))
        meta = {
            "mode": "memory",
            "banks": banks,
            "ports": ports,
            "mem_ops": mem_ops,
        }
        return lowered, windows, meta

    if mode == "io":
        merged = dict(windows or {})
        for op, step in data["pins"]:
            if op not in dfg:
                raise SchedulingError(
                    f"io pin references unknown op {op!r}"
                )
            lo, hi = merged.get(op, (step, step))
            if not (lo <= step <= hi):
                raise SchedulingError(
                    f"io pin {op}@{step} falls outside the spec's "
                    f"window [{lo}, {hi}] for the same op"
                )
            merged[op] = (step, step)
        meta = {
            "mode": "io",
            "pins": {op: step for op, step in data["pins"]},
        }
        return resources, merged, meta

    # mode == "reliability"
    meta = apply_reliability(dfg, data["ops"])
    return resources, windows, meta
