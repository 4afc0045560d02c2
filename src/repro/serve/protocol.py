"""Request/response schema for the scheduling service.

One endpoint does work — ``POST /schedule`` — and its body is a JSON
object::

    {
      "graph": "HAL",                  # registry name, or an inline
                                       # repro-dfg-v1 document (dict)
      "resources": "2+/-,2*",          # optional, paper notation
      "algorithm": "meta2",            # optional, id or alias
      "artifacts": false,              # optional: include the full
                                       # schedule artifact in the body
      "gaps": false,                   # optional: include the
                                       # optimality gap (small graphs)
      "windows": {"n3": [2, 5]},       # optional: per-op [lo, hi]
                                       # start-window pins (only on
                                       # window-capable algorithms)
      "budget": {"nodes": 100000},     # optional: search budget
                                       # (nodes and/or deadline_ms;
                                       # only on budget-capable
                                       # algorithms like bnb-anytime)
      "scenario": {"mode": "memory",   # optional: constraint scenario
                   "banks": 2,         # ("memory" | "io" |
                   "ports": 2},        # "reliability"; see
                                       # repro.engine.scenario)
      "io_schedule": {"in1": 0}        # optional sugar: op -> step
                                       # protocol pins, shorthand for
                                       # an "io" scenario (mutually
                                       # exclusive with "scenario")
    }

Validation is strict: unknown top-level keys, wrong field types,
unknown benchmark/algorithm names, and malformed inline graphs all
raise :class:`ProtocolError`, which the server turns into a 400 with
the message in the body — never a 500.

Response bodies are canonical JSON (sorted keys, tight separators)
built from :meth:`~repro.engine.job.JobResult.public_dict`, which
excludes the volatile fields (``runtime_s``, ``cached``).  The same
request body therefore always yields a byte-identical response,
whether the result was computed fresh, coalesced onto an in-flight
computation, or served from the cache — those distinctions travel in
the ``X-Repro-Source`` response header.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict

from repro.engine.algorithms import DEFAULT_ALGORITHM
from repro.engine.job import JobResult, JobSpec
from repro.errors import ReproError
from repro.graphs.registry import graph_names
from repro.ir.dfg import DataFlowGraph
from repro.ir.serialize import dfg_from_dict
from repro.scheduling.resources import DEFAULT_RESOURCES

RESPONSE_FORMAT = "repro-serve-v1"

_REQUEST_FIELDS = frozenset(
    {
        "graph",
        "resources",
        "algorithm",
        "artifacts",
        "gaps",
        "windows",
        "budget",
        "scenario",
        "io_schedule",
    }
)


class ProtocolError(ReproError):
    """A request the service must refuse, with its HTTP status."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class ScheduleRequest:
    """A validated ``POST /schedule`` body: the job plus shaping flags.

    ``spec`` is hashable, so the coalescer keys in-flight computations
    on it directly; two requests that differ only in ``artifacts`` /
    ``gaps`` coalesce onto the same computation and are shaped apart at
    response time.
    """

    spec: JobSpec
    artifacts: bool = False
    gaps: bool = False


def _parse_graph(value: Any):
    if isinstance(value, str):
        name = value.upper()
        # Scale-tier names resolve too: serving one big registry job
        # is legal (if unwise); only *enumeration* excludes them.
        known = graph_names(include_scale=True)
        if name not in known:
            raise ProtocolError(
                f"unknown benchmark {value!r}; known: {', '.join(known)}"
            )
        return name
    if isinstance(value, dict):
        try:
            return dfg_from_dict(value)
        except ReproError as exc:
            raise ProtocolError(f"bad inline graph: {exc}")
    raise ProtocolError(
        "field 'graph' must be a registry benchmark name or an inline "
        f"repro-dfg-v1 object, got {type(value).__name__}"
    )


def _parse_windows(value: Any) -> Dict[str, tuple]:
    """Validate the optional per-op window object strictly.

    Shape errors here are the client's fault and must answer 400 —
    semantic errors (unknown op for the graph, an algorithm without
    window support) are caught by :class:`JobSpec` / the engine and
    reported the same way.
    """
    if not isinstance(value, dict):
        raise ProtocolError(
            f"field 'windows' must be an object mapping op ids to "
            f"[lo, hi] pairs, got {type(value).__name__}"
        )
    windows: Dict[str, tuple] = {}
    for op, bounds in value.items():
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise ProtocolError(
                f"window for {op!r} must be a [lo, hi] pair, "
                f"got {bounds!r}"
            )
        lo, hi = bounds
        if (
            isinstance(lo, bool)
            or isinstance(hi, bool)
            or not isinstance(lo, int)
            or not isinstance(hi, int)
        ):
            raise ProtocolError(
                f"window bounds for {op!r} must be integers, "
                f"got {bounds!r}"
            )
        if lo < 0 or lo > hi:
            raise ProtocolError(
                f"window for {op!r} must satisfy 0 <= lo <= hi, "
                f"got [{lo}, {hi}]"
            )
        windows[op] = (lo, hi)
    return windows


def _parse_scenario(value: Any) -> Dict[str, Any]:
    """Validate the optional scenario object's *shape* strictly.

    The protocol layer checks only what makes the object well-formed
    as a request field: a JSON object with a string ``mode``.  Field
    names, value types, and mode/algorithm compatibility are validated
    by :func:`repro.engine.scenario.normalize_scenario` inside
    :meth:`JobSpec.make` — its errors also answer 400, never 500.
    """
    if not isinstance(value, dict):
        raise ProtocolError(
            f"field 'scenario' must be an object with a 'mode' key, "
            f"got {type(value).__name__}"
        )
    mode = value.get("mode")
    if not isinstance(mode, str):
        raise ProtocolError(
            f"scenario 'mode' must be a string "
            f"('memory', 'io', or 'reliability'), got {mode!r}"
        )
    return value


def _parse_io_schedule(value: Any) -> Dict[str, Any]:
    """Lower the ``io_schedule`` sugar into an ``io`` scenario.

    ``{"op": step, ...}`` with non-negative integer steps; the
    equivalent of ``{"scenario": {"mode": "io", "pins": ...}}``.
    """
    if not isinstance(value, dict):
        raise ProtocolError(
            f"field 'io_schedule' must be an object mapping op ids to "
            f"integer steps, got {type(value).__name__}"
        )
    pins: Dict[str, int] = {}
    for op, step in value.items():
        if isinstance(step, bool) or not isinstance(step, int):
            raise ProtocolError(
                f"io_schedule step for {op!r} must be an integer, "
                f"got {step!r}"
            )
        if step < 0:
            raise ProtocolError(
                f"io_schedule step for {op!r} must be >= 0, got {step}"
            )
        pins[op] = step
    return {"mode": "io", "pins": pins}


def _parse_flag(data: Dict[str, Any], field: str) -> bool:
    value = data.get(field, False)
    if not isinstance(value, bool):
        raise ProtocolError(
            f"field {field!r} must be a boolean, got {value!r}"
        )
    return value


def parse_request(body: bytes) -> ScheduleRequest:
    """Validate a ``POST /schedule`` body into a :class:`ScheduleRequest`.

    Raises :class:`ProtocolError` (status 400) on any malformed input.
    """
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got "
            f"{type(data).__name__}"
        )
    unknown = sorted(set(data) - _REQUEST_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown request field(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(_REQUEST_FIELDS))}"
        )
    if "graph" not in data:
        raise ProtocolError("field 'graph' is required")

    graph = _parse_graph(data["graph"])

    resources = data.get("resources", DEFAULT_RESOURCES)
    if not isinstance(resources, str):
        raise ProtocolError(
            f"field 'resources' must be a string in the paper's "
            f"notation, got {type(resources).__name__}"
        )
    algorithm = data.get("algorithm", DEFAULT_ALGORITHM)
    if not isinstance(algorithm, str):
        raise ProtocolError(
            f"field 'algorithm' must be a string, got "
            f"{type(algorithm).__name__}"
        )
    artifacts = _parse_flag(data, "artifacts")
    gaps = _parse_flag(data, "gaps")
    windows = None
    if "windows" in data:
        windows = _parse_windows(data["windows"])
        if isinstance(graph, DataFlowGraph):
            # Inline graphs are in hand; refuse dangling pins now.
            # Registry jobs defer the membership check to the engine,
            # which reports it as a structured per-job failure.
            for op in windows:
                if op not in graph:
                    raise ProtocolError(
                        f"window references unknown op {op!r} in the "
                        f"inline graph"
                    )
    budget = None
    if "budget" in data:
        budget = data["budget"]
        if not isinstance(budget, dict):
            raise ProtocolError(
                f"field 'budget' must be an object with 'nodes' and/or "
                f"'deadline_ms', got {type(budget).__name__}"
            )
    scenario = None
    if "scenario" in data and "io_schedule" in data:
        raise ProtocolError(
            "fields 'scenario' and 'io_schedule' are mutually "
            "exclusive: 'io_schedule' is shorthand for an 'io' scenario"
        )
    if "scenario" in data:
        scenario = _parse_scenario(data["scenario"])
    elif "io_schedule" in data:
        scenario = _parse_io_schedule(data["io_schedule"])
    if scenario is not None and isinstance(graph, DataFlowGraph):
        # Same policy as windows: pins/targets into an inline graph
        # are in hand, so dangling references are refused now instead
        # of as a per-job structured failure.
        pins = scenario.get("pins")
        ops = scenario.get("ops")
        referenced = list(pins) if isinstance(pins, dict) else []
        referenced += list(ops) if isinstance(ops, (list, tuple)) else []
        for op in referenced:
            if isinstance(op, str) and op not in graph:
                raise ProtocolError(
                    f"scenario references unknown op {op!r} in the "
                    f"inline graph"
                )
    try:
        # JobSpec.make runs the resource, algorithm, window, budget,
        # and scenario validation itself (ResourceSet.parse /
        # canonical_algorithm / _normalize_windows /
        # _normalize_budget / normalize_scenario); one pass, one
        # place for the rules to live.
        spec = JobSpec.make(
            graph,
            resources,
            algorithm,
            windows=windows,
            budget=budget,
            scenario=scenario,
        )
    except ReproError as exc:
        raise ProtocolError(str(exc))

    return ScheduleRequest(spec=spec, artifacts=artifacts, gaps=gaps)


def response_payload(
    result: JobResult, request: ScheduleRequest
) -> Dict[str, Any]:
    """Shape an engine result to the request's flags.

    The engine behind the service always computes rich results (full
    artifact, gap where eligible) so any flag combination coalesces and
    caches together; here the payloads the request did not ask for are
    dropped.  ``gap`` stays ``null`` when requested on a graph too
    large for the exact comparator.
    """
    data = result.public_dict()
    if not request.artifacts:
        del data["artifact"]
    if not request.gaps:
        del data["gap"]
    return {"format": RESPONSE_FORMAT, **data}


def encode_json(payload: Dict[str, Any]) -> bytes:
    """Canonical JSON bytes: sorted keys, tight separators, UTF-8."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def error_payload(message: str) -> Dict[str, Any]:
    return {"error": message}


def source_of(result: JobResult, coalesced: bool) -> str:
    """The ``X-Repro-Source`` header value for a served result."""
    if coalesced:
        return "coalesced"
    return "cache" if result.cached else "computed"


def decode_response(body: bytes) -> Dict[str, Any]:
    """Parse a response body (client-side helper)."""
    return json.loads(body.decode("utf-8"))
