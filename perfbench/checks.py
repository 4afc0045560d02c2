"""Output checks, written against the schedule artifact format only.

These deliberately re-derive every rule from the input graph instead
of calling the program's own validator, so a bug shared by a kernel
and its validator still shows up here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Op kinds that need a multiplier; every other kind here runs on an ALU.
_MUL_KINDS = frozenset({"MUL", "DIV"})

#: Extra latency force-directed jobs get over the critical path.
FDS_SLACK = 3


class GraphFacts:
    """What the checks need from an input graph: op kinds, delays, edges."""

    def __init__(self, dfg):
        self.ops: Dict[str, Tuple[str, int]] = {
            node: (dfg.node(node).op.name, dfg.delay(node))
            for node in dfg.nodes()
        }
        self.edges: List[Tuple[str, str, int]] = [
            (edge.src, edge.dst, edge.weight) for edge in dfg.edges()
        ]
        self.critical_path = self._critical_path()

    def _critical_path(self) -> int:
        """Longest source-to-sink path: earliest finish of the last op."""
        preds: Dict[str, List[Tuple[str, int]]] = {op: [] for op in self.ops}
        succs: Dict[str, List[str]] = {op: [] for op in self.ops}
        for src, dst, weight in self.edges:
            preds[dst].append((src, weight))
            succs[src].append(dst)
        waiting = {op: len(preds[op]) for op in self.ops}
        ready = [op for op, count in waiting.items() if count == 0]
        earliest: Dict[str, int] = {}
        while ready:
            op = ready.pop()
            earliest[op] = max(
                (earliest[p] + self.ops[p][1] + w for p, w in preds[op]),
                default=0,
            )
            for succ in succs[op]:
                waiting[succ] -= 1
                if waiting[succ] == 0:
                    ready.append(succ)
        if len(earliest) != len(self.ops):
            raise ValueError("input graph has a cycle")
        return max(
            (earliest[op] + delay for op, (_, delay) in self.ops.items()),
            default=0,
        )


def check_schedule(
    facts: GraphFacts,
    length: int,
    artifact: Optional[Dict],
    units: Dict[str, int],
    algorithm: str,
) -> Optional[str]:
    """The first rule a result breaks, or None when it passes.

    * every input op has a step >= 0 and every edge ``p -> q`` holds
      ``step(q) >= step(p) + delay(p) + weight``;
    * the reported length covers every op's finish;
    * list and threaded schedules bind each op to an existing unit of
      the right type and never book one unit twice in a step;
    * force-directed schedules stay within their latency bound.
    """
    if artifact is None:
        return "no schedule artifact"
    ops = artifact.get("ops") or {}
    if artifact.get("length") != length:
        return f"artifact length {artifact.get('length')} != {length}"
    steps: Dict[str, int] = {}
    for op in facts.ops:
        entry = ops.get(op)
        if entry is None:
            return f"op {op} unscheduled"
        steps[op] = int(entry["step"])
        if steps[op] < 0:
            return f"op {op} at negative step {steps[op]}"
    for src, dst, weight in facts.edges:
        if steps[dst] < steps[src] + facts.ops[src][1] + weight:
            return f"precedence {src}->{dst} violated"
    finish = max(steps[op] + facts.ops[op][1] for op in facts.ops)
    if length < finish:
        return f"length {length} shorter than last finish {finish}"
    if algorithm == "force-directed":
        bound = facts.critical_path + FDS_SLACK
        if length > bound:
            return f"force-directed length {length} over bound {bound}"
        return None
    booked: Dict[Tuple[str, int], str] = {}
    for op, (kind, delay) in facts.ops.items():
        unit = ops[op].get("unit")
        if unit is None:
            return f"op {op} unbound"
        name, _, index = unit.rstrip("]").partition("[")
        want = "mul" if kind in _MUL_KINDS else "alu"
        if name != want or int(index) >= units.get(name, 0):
            return f"op {op} ({kind}) bound to missing unit {unit}"
        for step in range(steps[op], steps[op] + max(1, delay)):
            other = booked.setdefault((unit, step), op)
            if other != op:
                return f"unit {unit} double-booked at {step}: {other}, {op}"
    return None
