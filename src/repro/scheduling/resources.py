"""Functional-unit types and resource constraint sets.

The paper's Figure 3 writes resource constraints in a compact notation:
``"2+/-,2*"`` means two ALUs (each able to do add, subtract, compare)
and two multipliers.  :meth:`ResourceSet.parse` accepts exactly that
notation (including the ``"2+/"`` abbreviation that appears in the
table header) so experiment configs read like the paper.

A functional-unit type (:class:`FuType`) owns a set of operation kinds it
can execute, plus optional structural *attributes* — the extension hook
of the scenario constraint model.  The standard library of types:

========  =========================================  ==================
name      operations                                 Figure 3 notation
========  =========================================  ==================
``alu``   add, sub, neg, compares, logic, move, phi  ``+/-`` or ``+/``
``mul``   mul, div                                   ``*``
``mem``   load, store                                ``mem``
========  =========================================  ==================

Memory-aware scheduling (Corre et al.-style banked memories) writes the
memory system as ``"<B*P>mem[<B>x<P>]"``: *B* banks with *P* ports
each.  The unit count is the total port count (so every count-based
bound stays a sound relaxation); the banking attribute additionally
caps concurrent accesses *per bank* at *P*, which the list scheduler
enforces, the force-directed distribution graphs balance, and
:func:`repro.scheduling.base.validate_schedule` plus the cycle
simulator check.  Which bank an op touches comes from
:func:`bank_assignment`: an explicit ``@bank<k>`` tag in the node name
wins; untagged memory ops are assigned round-robin over their sorted
ids (deterministic, hash-seed independent).

Structural kinds (wire/const/nop) never occupy a functional unit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import ResourceError
from repro.ir.dfg import DataFlowGraph
from repro.ir.ops import OpKind

#: The constraint every front end assumes when a request or command
#: names none: two ALUs and two multipliers.
DEFAULT_RESOURCES = "2+/-,2*"

#: Most units of one functional-unit type a resource set may hold.
#: Real designs use single digits; the bound keeps a malformed request
#: from making a scheduler build thousands of unit threads (HAL under
#: ``threaded(meta2)`` takes 0.04 s at 256 ALUs + 256 MULs, 0.7 s at
#: 1024 + 1024, and exhausts a 3 GB address space at 4096 + 4096).
MAX_UNITS = 256


@dataclass(frozen=True)
class FuType:
    """A functional-unit type: a name, the op kinds it executes, and
    optional structural attributes (sorted ``(key, value)`` pairs so
    the type stays hashable).  ``attrs`` is empty for the classic flat
    types; banked memories carry ``(("banks", B), ("ports", P))``.
    """

    name: str
    ops: FrozenSet[OpKind]
    attrs: Tuple[Tuple[str, int], ...] = ()

    def supports(self, op: OpKind) -> bool:
        return op in self.ops

    @property
    def banking(self) -> Optional[Tuple[int, int]]:
        """``(banks, ports)`` for a banked unit type, else ``None``."""
        attrs = dict(self.attrs)
        if "banks" in attrs and "ports" in attrs:
            return attrs["banks"], attrs["ports"]
        return None

    def __repr__(self):
        if self.attrs:
            inner = ", ".join(f"{k}={v}" for k, v in self.attrs)
            return f"FuType({self.name!r}, {inner})"
        return f"FuType({self.name!r})"


ALU = FuType(
    "alu",
    frozenset(
        {
            OpKind.ADD,
            OpKind.SUB,
            OpKind.NEG,
            OpKind.LT,
            OpKind.LE,
            OpKind.GT,
            OpKind.GE,
            OpKind.EQ,
            OpKind.NE,
            OpKind.AND,
            OpKind.OR,
            OpKind.XOR,
            OpKind.NOT,
            OpKind.SHL,
            OpKind.SHR,
            OpKind.MOVE,
            OpKind.PHI,
        }
    ),
)

MUL = FuType("mul", frozenset({OpKind.MUL, OpKind.DIV}))

MEM = FuType("mem", frozenset({OpKind.LOAD, OpKind.STORE}))

FU_TYPES: Dict[str, FuType] = {ft.name: ft for ft in (ALU, MUL, MEM)}

# The paper's Figure 3 tokens for each type (all accepted spellings).
_NOTATION: Dict[str, FuType] = {
    "+/-": ALU,
    "+/": ALU,
    "+": ALU,
    "alu": ALU,
    "*": MUL,
    "mul": MUL,
    "mem": MEM,
}

#: ``mem[<banks>x<ports>]`` — the banked-memory token body.
_BANKED_MEM = re.compile(r"^mem\[(\d+)x(\d+)\]$")


def banked_mem(banks: int, ports: int) -> FuType:
    """The banked-memory unit type: ``banks`` banks of ``ports`` ports.

    Equal parameters build equal (and equally-hashing) types, so
    banked resource sets compare and cache-key like flat ones.
    """
    if banks < 1 or ports < 1:
        raise ResourceError(
            f"banked mem needs banks >= 1 and ports >= 1, "
            f"got {banks}x{ports}"
        )
    return FuType(
        "mem", MEM.ops, attrs=(("banks", banks), ("ports", ports))
    )


#: The node-name tag that pins a memory op to a bank (``"x @bank1"``).
_BANK_TAG = re.compile(r"@bank(\d+)\b")


def bank_assignment(dfg: DataFlowGraph, banks: int) -> Dict[str, int]:
    """Deterministic bank of every memory op in ``dfg``.

    An explicit ``@bank<k>`` tag in the node *name* wins (modulo the
    bank count); untagged LOAD/STORE ops are assigned round-robin over
    their sorted ids.  Pure string work — independent of insertion
    order and ``PYTHONHASHSEED`` — so every layer (scheduler, DG
    builder, validator, simulator) derives the identical map.
    """
    if banks < 1:
        raise ResourceError(f"bank count must be >= 1, got {banks}")
    mem_ops = sorted(
        node.id
        for node in dfg.node_objects()
        if node.op in (OpKind.LOAD, OpKind.STORE)
    )
    assignment: Dict[str, int] = {}
    cursor = 0
    for node_id in mem_ops:
        name = dfg.node(node_id).name or ""
        tag = _BANK_TAG.search(name)
        if tag is not None:
            assignment[node_id] = int(tag.group(1)) % banks
        else:
            assignment[node_id] = cursor % banks
            cursor += 1
    return assignment


class ResourceSet:
    """A multiset of functional units, e.g. two ALUs and one multiplier.

    Construction always requires at least one unit: an all-zero set is
    rejected with :class:`ResourceError` everywhere (``parse``, the
    constructor, and :meth:`of` agree), so an "empty constraint" can
    never slip into a scheduler and mean accidentally-unlimited or
    accidentally-zero hardware.  Every count is bounded by
    :data:`MAX_UNITS` in the constructor, which ``parse``, ``of``,
    ``with_added`` and ``with_banked_mem`` all pass through.

    >>> rs = ResourceSet.parse("2+/-,1*")
    >>> rs.count(ALU), rs.count(MUL)
    (2, 1)
    >>> rs.fu_for_op(OpKind.MUL).name
    'mul'
    """

    def __init__(self, counts: Mapping[FuType, int]):
        for fu_type, count in counts.items():
            if not isinstance(fu_type, FuType):
                raise ResourceError(f"expected FuType key, got {fu_type!r}")
            if not 0 <= count <= MAX_UNITS:
                raise ResourceError(
                    f"count for {fu_type.name} must be in "
                    f"[0, {MAX_UNITS}], got {count}"
                )
        self._counts: Dict[FuType, int] = {
            ft: c for ft, c in counts.items() if c > 0
        }
        if not self._counts:
            raise ResourceError(
                "empty resource set: at least one functional unit "
                "is required"
            )
        mem_types = [ft for ft in self._counts if ft.name == "mem"]
        if len(mem_types) > 1:
            raise ResourceError(
                "conflicting mem configurations in one resource set: "
                + ", ".join(repr(ft) for ft in mem_types)
            )
        for ft, c in self._counts.items():
            banking = ft.banking
            if banking is not None and c != banking[0] * banking[1]:
                raise ResourceError(
                    f"banked {ft.name} count {c} must equal "
                    f"banks*ports = {banking[0]}*{banking[1]} = "
                    f"{banking[0] * banking[1]}"
                )

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ResourceSet":
        """Parse the paper's constraint notation (``"2+/-,2*"``).

        Empty tokens (``"2+/-,,1*"`` or a trailing comma) are
        malformed and raise :class:`ResourceError` — a silently
        skipped token is indistinguishable from a typo that dropped a
        unit.  Repeating a token is *accumulative by design*:
        ``"2+/-,1+/-"`` means three ALUs, exactly like listing a unit
        twice in a parts inventory (pinned by the test suite).

        The banked-memory extension parses ``"<B*P>mem[<B>x<P>]"``;
        the leading count must equal ``B*P`` so the unit count always
        means "concurrent accesses available".
        """
        counts: Dict[FuType, int] = {}
        for raw in text.split(","):
            token = raw.strip()
            if not token:
                raise ResourceError(
                    f"empty resource token in {text!r}: remove the "
                    f"stray comma"
                )
            digits = ""
            while token and token[0].isdigit():
                digits += token[0]
                token = token[1:]
            if not digits:
                raise ResourceError(
                    f"malformed resource token {raw!r}: missing count"
                )
            token = token.strip()
            banked = _BANKED_MEM.match(token)
            if banked is not None:
                fu_type = banked_mem(
                    int(banked.group(1)), int(banked.group(2))
                )
            else:
                fu_type = _NOTATION.get(token)
                if fu_type is None:
                    raise ResourceError(
                        f"unknown functional-unit notation {token!r} "
                        f"in {raw!r}"
                    )
            counts[fu_type] = counts.get(fu_type, 0) + int(digits)
        if not counts:
            raise ResourceError(f"empty resource specification: {text!r}")
        return cls(counts)

    @classmethod
    def of(cls, alu: int = 0, mul: int = 0, mem: int = 0) -> "ResourceSet":
        """Build directly from counts of the standard types.

        All-zero counts raise :class:`ResourceError`, matching
        :meth:`parse` — there is no blessed empty-set path.
        """
        return cls({ALU: alu, MUL: mul, MEM: mem})

    def with_added(self, fu_type: FuType, count: int = 1) -> "ResourceSet":
        counts = dict(self._counts)
        counts[fu_type] = counts.get(fu_type, 0) + count
        return ResourceSet(counts)

    def with_banked_mem(self, banks: int, ports: int) -> "ResourceSet":
        """This set with its memory system replaced by ``banks`` banks
        of ``ports`` ports (added if the set had no memory at all) —
        the memory-scenario lowering step.
        """
        counts = {
            ft: c for ft, c in self._counts.items() if ft.name != "mem"
        }
        counts[banked_mem(banks, ports)] = banks * ports
        return ResourceSet(counts)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def count(self, fu_type: FuType) -> int:
        return self._counts.get(fu_type, 0)

    @property
    def fu_types(self) -> List[FuType]:
        return list(self._counts)

    @property
    def total_units(self) -> int:
        return sum(self._counts.values())

    def banked_fu(self) -> Optional[FuType]:
        """The banked unit type of this set, or ``None``.

        At most one exists (the constructor rejects conflicting mem
        configurations), so schedulers can special-case banking with
        one lookup.
        """
        for ft in self._counts:
            if ft.banking is not None:
                return ft
        return None

    def bank_of_unit(self, fu_type: FuType, index: int) -> Optional[int]:
        """Which bank unit ``(fu_type, index)`` belongs to (ports are
        numbered bank-major), or ``None`` for unbanked types."""
        banking = fu_type.banking
        if banking is None:
            return None
        return index // banking[1]

    def instances(self) -> List[Tuple[FuType, int]]:
        """All concrete units as ``(type, index)`` pairs, deterministic."""
        result = []
        for fu_type, count in self._counts.items():
            result.extend((fu_type, index) for index in range(count))
        return result

    def fu_for_op(self, op: OpKind) -> Optional[FuType]:
        """The unit type that executes ``op`` (first match), or ``None``.

        Structural kinds always map to ``None``.
        """
        if op.is_structural:
            return None
        for fu_type in self._counts:
            if fu_type.supports(op):
                return fu_type
        return None

    def check_schedulable(self, dfg: DataFlowGraph) -> List[str]:
        """Ops in ``dfg`` that no available unit can execute (ids)."""
        missing = []
        for node in dfg.node_objects():
            if node.op.is_structural:
                continue
            if self.fu_for_op(node.op) is None:
                missing.append(node.id)
        return missing

    def __eq__(self, other):
        if not isinstance(other, ResourceSet):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self):
        return hash(frozenset(self._counts.items()))

    def notation(self) -> str:
        """Render back to the paper's notation (canonical spelling)."""
        spelling = {ALU: "+/-", MUL: "*", MEM: "mem"}
        parts = []
        for fu_type, count in self._counts.items():
            banking = fu_type.banking
            if banking is not None:
                parts.append(f"{count}mem[{banking[0]}x{banking[1]}]")
            else:
                parts.append(
                    f"{count}{spelling.get(fu_type, fu_type.name)}"
                )
        return ",".join(parts)

    def __repr__(self):
        return f"ResourceSet({self.notation()!r})"
