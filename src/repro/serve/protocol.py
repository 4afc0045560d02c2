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

``GET /schedule/stream?graph=HAL[&resources=..][&nodes=..]
[&deadline_ms=..]`` asks for a live ``bnb-anytime`` improvement run;
:func:`parse_stream` turns its query into that job's spec.

This module parses only the envelope: JSON, known fields, a required
``graph``, the types of ``graph``/``resources``/``algorithm``, boolean
flags, the four constraint fields being JSON objects, and ``scenario``
excluding ``io_schedule``.  What sits inside a job — resources,
algorithm, window bounds, budget, scenario, and the ops they name in
an inline graph — is validated once, by
:meth:`~repro.engine.job.JobSpec.make`.  Any refusal is a
:class:`ProtocolError`, which the server turns into a 400 with the
message in the body — never a 500.

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
from urllib.parse import parse_qsl

from repro.engine.algorithms import DEFAULT_ALGORITHM
from repro.engine.job import JobResult, JobSpec
from repro.errors import ReproError
from repro.graphs.registry import graph_names
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

#: The request fields that constrain a job: each must be a JSON object,
#: whose contents JobSpec.make validates.
_CONSTRAINT_FIELDS = ("windows", "budget", "scenario", "io_schedule")

_STREAM_PARAMS = frozenset({"graph", "resources", "nodes", "deadline_ms"})


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
    for field in _CONSTRAINT_FIELDS:
        if field in data and not isinstance(data[field], dict):
            raise ProtocolError(
                f"field {field!r} must be a JSON object, got "
                f"{type(data[field]).__name__}"
            )
    if "scenario" in data and "io_schedule" in data:
        raise ProtocolError(
            "fields 'scenario' and 'io_schedule' are mutually "
            "exclusive: 'io_schedule' is shorthand for an 'io' scenario"
        )
    scenario = None
    if "scenario" in data:
        # A present scenario names its mode: an empty object reaches
        # JobSpec.make as mode null, not as "no scenario".
        scenario = {"mode": None, **data["scenario"]}
    elif "io_schedule" in data:
        scenario = {"mode": "io", "pins": data["io_schedule"]}
    try:
        spec = JobSpec.make(
            graph,
            resources,
            algorithm,
            windows=data.get("windows"),
            budget=data.get("budget"),
            scenario=scenario,
        )
    except ReproError as exc:
        raise ProtocolError(str(exc))

    return ScheduleRequest(spec=spec, artifacts=artifacts, gaps=gaps)


def parse_stream(query: str) -> JobSpec:
    """Validate a ``GET /schedule/stream`` query into its job.

    The job is the graph's ``bnb-anytime`` spec carrying the query's
    ``nodes``/``deadline_ms`` budget (none when both are absent or
    empty); its :meth:`~repro.engine.job.JobSpec.canonical` spec names
    the cache entry the run improves.  Raises :class:`ProtocolError`
    (status 400) on any malformed query.
    """
    params = dict(parse_qsl(query, keep_blank_values=True))
    unknown = sorted(set(params) - _STREAM_PARAMS)
    if unknown:
        raise ProtocolError(
            f"unknown query parameter(s): {', '.join(unknown)}"
        )
    if not params.get("graph"):
        raise ProtocolError("query parameter 'graph' is required")
    graph = _parse_graph(params["graph"])
    budget = {}
    for field in ("nodes", "deadline_ms"):
        raw = params.get(field)
        if raw:
            try:
                budget[field] = int(raw)
            except ValueError:
                raise ProtocolError(
                    f"query parameter {field!r} must be an integer, "
                    f"got {raw!r}"
                )
    try:
        return JobSpec.make(
            graph,
            params.get("resources", DEFAULT_RESOURCES),
            "bnb-anytime",
            budget=budget,
        )
    except ReproError as exc:
        raise ProtocolError(str(exc))


def response_payload(
    result: JobResult, request: ScheduleRequest
) -> Dict[str, Any]:
    """Shape an engine result to the request's flags.

    The engine behind the service always computes rich results (full
    artifact, gap where eligible) so any flag combination coalesces and
    caches together; here the payloads the request did not ask for are
    dropped.  ``gap`` stays ``null`` when requested on a graph too
    large for the ``bnb-anytime`` comparator, or when the comparator
    did not prove its optimum.
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
