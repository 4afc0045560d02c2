"""Operation vocabulary and delay models.

The paper's precedence graph (Definition 1) carries a delay function
``D_G : V_G -> I``.  In this library every node stores an :class:`OpKind`
and an integer delay; :class:`DelayModel` maps kinds to default delays so
benchmark graphs and the frontend agree on one timing model.

The *standard* delay model (multiplier ops take 2 control steps, ALU ops
take 1) is the one used throughout the 1990s HLS literature, including the
force-directed-scheduling paper whose benchmarks the evaluation reuses; it
reproduces the schedule lengths reported in the paper's Figure 3 (e.g. HAL
length 6 under abundant resources: the critical path *, *, -, - costs
2 + 2 + 1 + 1).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Mapping, Optional

from repro.errors import ConfigError


class OpKind(enum.Enum):
    """Kinds of operations that may appear in a dataflow graph."""

    # Arithmetic.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    NEG = "neg"
    # Comparisons.
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"
    # Bitwise / logic.
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    # Data movement.
    MOVE = "move"
    PHI = "phi"
    # Memory (spill code is built from these).
    LOAD = "load"
    STORE = "store"
    # Physical artifacts.
    WIRE = "wire"
    # Structural.
    CONST = "const"
    NOP = "nop"

    def __repr__(self):
        return f"OpKind.{self.name}"

    @property
    def symbol(self) -> str:
        """Short printable symbol, used by DOT export and reports."""
        return _SYMBOLS[self]

    @property
    def is_arithmetic(self) -> bool:
        return self in _ARITHMETIC

    @property
    def is_comparison(self) -> bool:
        return self in _COMPARISONS

    @property
    def is_logic(self) -> bool:
        return self in _LOGIC

    @property
    def is_memory(self) -> bool:
        return self in (OpKind.LOAD, OpKind.STORE)

    @property
    def is_commutative(self) -> bool:
        """True when operand order does not matter (affects binding only)."""
        return self in _COMMUTATIVE

    @property
    def is_structural(self) -> bool:
        """True for nodes that never occupy a functional unit.

        Wire-delay vertices model interconnect latency; constants and NOPs
        are placeholders produced by the frontend.  Structural nodes take
        part in precedence and distance computations but are not assigned
        to threads / functional units.
        """
        return self in (OpKind.WIRE, OpKind.CONST, OpKind.NOP)


_SYMBOLS: Dict[OpKind, str] = {
    OpKind.ADD: "+",
    OpKind.SUB: "-",
    OpKind.MUL: "*",
    OpKind.DIV: "/",
    OpKind.NEG: "neg",
    OpKind.LT: "<",
    OpKind.LE: "<=",
    OpKind.GT: ">",
    OpKind.GE: ">=",
    OpKind.EQ: "==",
    OpKind.NE: "!=",
    OpKind.AND: "&",
    OpKind.OR: "|",
    OpKind.XOR: "^",
    OpKind.NOT: "~",
    OpKind.SHL: "<<",
    OpKind.SHR: ">>",
    OpKind.MOVE: "mv",
    OpKind.PHI: "phi",
    OpKind.LOAD: "ld",
    OpKind.STORE: "st",
    OpKind.WIRE: "wd",
    OpKind.CONST: "c",
    OpKind.NOP: "nop",
}

_ARITHMETIC = frozenset(
    {OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.NEG}
)
_COMPARISONS = frozenset(
    {OpKind.LT, OpKind.LE, OpKind.GT, OpKind.GE, OpKind.EQ, OpKind.NE}
)
_LOGIC = frozenset(
    {OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.NOT, OpKind.SHL, OpKind.SHR}
)
_COMMUTATIVE = frozenset(
    {
        OpKind.ADD,
        OpKind.MUL,
        OpKind.AND,
        OpKind.OR,
        OpKind.XOR,
        OpKind.EQ,
        OpKind.NE,
    }
)


class DelayModel:
    """Maps operation kinds to integer delays (in control steps).

    Instances are immutable mappings with a default.  Use
    :meth:`standard` for the literature-standard model or :meth:`unit`
    for unit delays.

    >>> DelayModel.standard()[OpKind.MUL]
    2
    >>> DelayModel.unit()[OpKind.MUL]
    1
    """

    __slots__ = ("_delays", "_default")

    def __init__(self, delays: Mapping[OpKind, int], default: int = 1):
        for kind, delay in delays.items():
            if not isinstance(kind, OpKind):
                raise TypeError(f"delay model keys must be OpKind, got {kind!r}")
            if delay < 0:
                raise ConfigError(
                    f"delay for {kind} must be >= 0, got {delay}"
                )
        if default < 0:
            raise ConfigError(
                f"default delay must be >= 0, got {default}"
            )
        self._delays = dict(delays)
        self._default = default

    @classmethod
    def standard(cls) -> "DelayModel":
        """Multiplier/divider ops take 2 steps, everything else 1.

        Structural kinds (wire, const, nop) default to the values used by
        the paper's scenarios: a wire-delay vertex costs 1 step, constants
        and NOPs are free.
        """
        return cls(
            {
                OpKind.MUL: 2,
                OpKind.DIV: 2,
                OpKind.WIRE: 1,
                OpKind.CONST: 0,
                OpKind.NOP: 0,
            },
            default=1,
        )

    @classmethod
    def unit(cls) -> "DelayModel":
        """Every non-structural operation takes exactly 1 step."""
        return cls({OpKind.CONST: 0, OpKind.NOP: 0}, default=1)

    @classmethod
    def uniform(cls, delay: int) -> "DelayModel":
        """Every operation, structural or not, takes ``delay`` steps."""
        return cls({}, default=delay)

    def override(self, delays: Mapping[OpKind, int]) -> "DelayModel":
        """Return a new model with some kinds overridden."""
        merged = dict(self._delays)
        merged.update(delays)
        return DelayModel(merged, default=self._default)

    def __getitem__(self, kind: OpKind) -> int:
        return self._delays.get(kind, self._default)

    def get(self, kind: OpKind, default: Optional[int] = None) -> int:
        if default is None:
            return self[kind]
        return self._delays.get(kind, default)

    def delays_for(self, kinds: Iterable[OpKind]) -> Dict[OpKind, int]:
        return {kind: self[kind] for kind in kinds}

    def __eq__(self, other):
        if not isinstance(other, DelayModel):
            return NotImplemented
        return self._delays == other._delays and self._default == other._default

    def __hash__(self):
        return hash((frozenset(self._delays.items()), self._default))

    def __repr__(self):
        items = ", ".join(
            f"{kind.name}={delay}" for kind, delay in sorted(
                self._delays.items(), key=lambda item: item[0].name
            )
        )
        return f"DelayModel({{{items}}}, default={self._default})"
