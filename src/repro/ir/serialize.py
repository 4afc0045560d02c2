"""JSON (de)serialization of graphs and schedules.

A downstream user needs to move workloads and results in and out of the
library; plain-dict JSON keeps that dependency-free and diffable.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from repro.errors import GraphError
from repro.ir.dfg import DataFlowGraph, check_steps
from repro.ir.ops import OpKind

_FORMAT = "repro-dfg-v1"
_SCHEDULE_FORMAT = "repro-schedule-v1"


def dfg_to_dict(dfg: DataFlowGraph) -> Dict[str, Any]:
    """Plain-dict form of a graph (stable key order)."""
    return {
        "format": _FORMAT,
        "name": dfg.name,
        "nodes": [
            {
                "id": node.id,
                "op": node.op.value,
                "delay": node.delay,
                **({"name": node.name} if node.name else {}),
            }
            for node in dfg.node_objects()
        ],
        "edges": [
            {
                "src": edge.src,
                "dst": edge.dst,
                **({"port": edge.port} if edge.port is not None else {}),
                **({"weight": edge.weight} if edge.weight else {}),
            }
            for edge in dfg.edges()
        ],
    }


def _check_field(kind: str, position: int, field: str, value: Any) -> None:
    """A delay or weight the graph would reject, named by its record."""
    try:
        check_steps(field, value)
    except GraphError as exc:
        raise GraphError(
            f"{kind} record #{position} has a bad field value: {exc}"
        ) from None


def dfg_from_dict(data: Dict[str, Any]) -> DataFlowGraph:
    """Rebuild a graph from :func:`dfg_to_dict` output.

    Every malformed record — a non-dict document, a node or edge entry
    missing a required field, an unknown op kind — raises
    :class:`~repro.errors.GraphError` naming the offending record, so
    callers handling untrusted documents (the serving front end turning
    inline request graphs into 400 responses) never see a raw
    ``KeyError``/``ValueError`` traceback.
    """
    if not isinstance(data, dict):
        raise GraphError(
            f"not a {_FORMAT} document (expected an object, "
            f"got {type(data).__name__})"
        )
    if data.get("format") != _FORMAT:
        raise GraphError(
            f"not a {_FORMAT} document (format={data.get('format')!r})"
        )
    name = data.get("name", "")
    if not isinstance(name, str):
        raise GraphError(
            f"graph name must be a string, got {type(name).__name__}"
        )
    for field in ("nodes", "edges"):
        records = data.get(field, [])
        if not isinstance(records, list):
            raise GraphError(
                f"graph {field!r} must be a list, got "
                f"{type(records).__name__}"
            )
    dfg = DataFlowGraph(name=name)
    for position, node in enumerate(data.get("nodes", [])):
        if not isinstance(node, dict):
            raise GraphError(f"malformed node record #{position}: {node!r}")
        if node.get("delay") is not None:
            _check_field("node", position, "delay", node["delay"])
        try:
            dfg.add_node(
                node["id"],
                OpKind(node["op"]),
                delay=node["delay"],
                name=node.get("name"),
            )
        except KeyError as exc:
            raise GraphError(
                f"node record #{position} is missing field {exc}"
            )
        except ValueError:
            raise GraphError(
                f"node record #{position} has unknown op kind "
                f"{node.get('op')!r}"
            )
    for position, edge in enumerate(data.get("edges", [])):
        if not isinstance(edge, dict):
            raise GraphError(f"malformed edge record #{position}: {edge!r}")
        _check_field("edge", position, "weight", edge.get("weight", 0))
        try:
            dfg.add_edge(
                edge["src"],
                edge["dst"],
                port=edge.get("port"),
                weight=edge.get("weight", 0),
            )
        except KeyError as exc:
            raise GraphError(
                f"edge record #{position} is missing field {exc}"
            )
        except TypeError as exc:
            raise GraphError(
                f"edge record #{position} has a bad field value: {exc}"
            )
    return dfg


def dfg_canonical_dict(dfg: DataFlowGraph) -> Dict[str, Any]:
    """Insertion-order-independent dict form, for content hashing.

    Unlike :func:`dfg_to_dict` (which preserves insertion order for
    readable round trips), nodes are sorted by id and edges by
    ``(src, dst, port)`` so two graphs with the same structure hash the
    same regardless of construction order.  The graph *name* is
    deliberately excluded: it is provenance, not structure.
    """
    data = dfg_to_dict(dfg)
    return {
        "format": data["format"],
        "nodes": sorted(data["nodes"], key=lambda n: n["id"]),
        "edges": sorted(
            data["edges"],
            key=lambda e: (e["src"], e["dst"], e.get("port", -1)),
        ),
    }


def dfg_fingerprint(dfg: DataFlowGraph) -> str:
    """Stable content hash of a graph (hex sha256).

    The fingerprint is a pure function of the graph's structure (node
    ids, op kinds, delays, names; edge endpoints, ports, weights) — it
    does not depend on node/edge insertion order, the graph's name, or
    the process.  Used by the batch engine as the graph component of
    content-addressed result-cache keys.
    """
    canonical = json.dumps(
        dfg_canonical_dict(dfg), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def dumps_dfg(dfg: DataFlowGraph, indent: Optional[int] = 2) -> str:
    return json.dumps(dfg_to_dict(dfg), indent=indent)


def loads_dfg(text: str) -> DataFlowGraph:
    return dfg_from_dict(json.loads(text))


def schedule_to_dict(schedule) -> Dict[str, Any]:
    """Plain-dict form of a hard schedule (graph embedded)."""
    return {
        "format": _SCHEDULE_FORMAT,
        "algorithm": schedule.algorithm,
        "length": schedule.length,
        "graph": dfg_to_dict(schedule.dfg),
        "start_times": dict(schedule.start_times),
        "binding": {
            node_id: [fu_type.name, index]
            for node_id, (fu_type, index) in schedule.binding.items()
        },
        "resources": (
            schedule.resources.notation() if schedule.resources else None
        ),
    }


def schedule_from_dict(data: Dict[str, Any]):
    """Rebuild a Schedule from :func:`schedule_to_dict` output."""
    from repro.scheduling.base import Schedule
    from repro.scheduling.resources import FU_TYPES, ResourceSet

    if data.get("format") != _SCHEDULE_FORMAT:
        raise GraphError(
            f"not a {_SCHEDULE_FORMAT} document "
            f"(format={data.get('format')!r})"
        )
    dfg = dfg_from_dict(data["graph"])
    binding = {
        node_id: (FU_TYPES[type_name], index)
        for node_id, (type_name, index) in data.get("binding", {}).items()
    }
    resources = (
        ResourceSet.parse(data["resources"]) if data.get("resources") else None
    )
    return Schedule(
        dfg=dfg,
        start_times=dict(data["start_times"]),
        binding=binding,
        resources=resources,
        algorithm=data.get("algorithm", ""),
    )


def dumps_schedule(schedule, indent: Optional[int] = 2) -> str:
    return json.dumps(schedule_to_dict(schedule), indent=indent)


def loads_schedule(text: str):
    return schedule_from_dict(json.loads(text))
