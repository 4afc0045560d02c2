"""The EF (fifth-order elliptic wave filter) benchmark.

The "EF" row of the paper's Figure 3 is the classic elliptic wave
filter: 34 operations — 26 additions and 8 multiplications — whose
critical path is 17 control steps under the standard delay model
(2-cycle multiplier, 1-cycle adder).

The paper does not list the graph, so this module reconstructs it in the
shape of the original wave-digital filter: a long *spine* of adaptor
additions with coefficient-multiplier branches that leave the spine and
rejoin it a few adaptors later, plus short parallel adder chains for the
adaptor side paths.  Branch positions and rejoin offsets were calibrated
against the paper's Figure 3 EF row (19 / 17 / 24).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.ir.builder import GraphBuilder
from repro.ir.dfg import DataFlowGraph
from repro.ir.ops import DelayModel

SPINE_ADDS = 13
TOTAL_ADDS = 26
TOTAL_MULS = 8

# Calibrated defaults.
#
# ``DOUBLE_BRANCH``: spine index hosting the two-multiplier series branch
#   (gives the 17-step critical path: 13 adds + 2 muls in series).
# ``SINGLE_BRANCHES``: (leave_index, rejoin_offset) per single-mul branch.
#   An offset of 3 is delay-matched (the two skipped adaptor additions
#   equal the multiplier delay), so such branches do not stretch the
#   critical path; smaller offsets stretch it by ``3 - offset``.
# ``SIDE_CHAINS``: (anchor_spine_index, length) adder chains modelling
#   the adaptor side paths; each rejoins the spine ``length + 1``
#   adaptors later, which is exactly delay-matched.
DOUBLE_BRANCH: int = 3
SINGLE_BRANCHES: Tuple[Tuple[int, int], ...] = (
    (2, 2),
    (2, 3),
    (2, 3),
    (4, 3),
    (5, 3),
    (9, 3),
)
SIDE_CHAINS: Tuple[Tuple[int, int], ...] = (
    (0, 2),
    (2, 4),
    (5, 5),
    (8, 2),
)


def elliptic_wave_filter(
    delay_model: Optional[DelayModel] = None,
    double_branch: int = DOUBLE_BRANCH,
    single_branches: Sequence[Tuple[int, int]] = SINGLE_BRANCHES,
    side_chains: Sequence[Tuple[int, int]] = SIDE_CHAINS,
) -> DataFlowGraph:
    """Build the 34-operation elliptic wave filter graph.

    Parameters mirror the module defaults; they exist so the calibration
    harness (and curious users) can explore the template.
    """
    if len(single_branches) != TOTAL_MULS - 2:
        raise GraphError(
            f"expected {TOTAL_MULS - 2} single-mul branches, "
            f"got {len(single_branches)}"
        )
    side_total = sum(length for _, length in side_chains)
    if SPINE_ADDS + side_total != TOTAL_ADDS:
        raise GraphError(
            f"spine ({SPINE_ADDS}) plus side chains ({side_total}) must "
            f"total {TOTAL_ADDS} additions"
        )

    b = GraphBuilder("ewf", delay_model=delay_model)

    # The spine: a chain of adaptor additions s1 -> s2 -> ... -> s13.
    spine: List[str] = []
    previous = None
    for index in range(SPINE_ADDS):
        node = b.add(f"s{index + 1}")
        if previous is not None:
            b.edge(previous, node)
        spine.append(node)
        previous = node

    mul_count = 0

    def new_mul(*preds: str) -> str:
        nonlocal mul_count
        mul_count += 1
        return b.mul(f"m{mul_count}", *preds)

    # The series double-multiplier branch: spine[i] -> m -> m -> spine[i+1].
    # This is what stretches the critical path to 13 + 2 + 2 = 17.
    i = double_branch
    if not 0 <= i < SPINE_ADDS - 1:
        raise GraphError(f"double branch index {i} out of spine range")
    first = new_mul(spine[i])
    second = new_mul(first)
    b.edge(second, spine[i + 1])

    # Single-multiplier branches: spine[i] -> m -> spine[i + offset].
    for leave, offset in single_branches:
        rejoin = leave + offset
        if not 0 <= leave < SPINE_ADDS or not leave < rejoin < SPINE_ADDS:
            raise GraphError(
                f"branch ({leave}, {offset}) leaves the spine range"
            )
        mul = new_mul(spine[leave])
        b.edge(mul, spine[rejoin])

    # Adder side chains: spine[i] -> a -> ... -> a -> spine[i + L + 1]
    # (delay-matched rejoin, so side paths never stretch the spine).
    chain_count = 0
    for anchor, length in side_chains:
        rejoin = anchor + length + 1
        if not 0 <= anchor < SPINE_ADDS or rejoin >= SPINE_ADDS:
            raise GraphError(
                f"side chain ({anchor}, {length}) leaves the spine range"
            )
        current = spine[anchor]
        for _ in range(length):
            chain_count += 1
            node = b.add(f"p{chain_count}")
            b.edge(current, node)
            current = node
        b.edge(current, spine[rejoin])

    return b.graph()
