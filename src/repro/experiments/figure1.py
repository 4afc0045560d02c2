"""Experiment E2: the Figure 1 walkthrough.

Reproduces every number the paper states about its running example:

* (b) the hard ALAP schedule of the 7-vertex graph;
* (e) a threaded schedule on two universal units hardens to 5 states;
* (c) spilling vertex 3's value and refining softly gives 6 states
  (vs 7 for the hard-schedule patch);
* (d) inserting a wire-delay vertex on vertex 3's fanout keeps the soft
  schedule at 5 states (vs 6 for the hard patch).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.refine import insert_spill, insert_wire_delay
from repro.core.scheduler import ThreadedScheduler
from repro.core.threaded_graph import ThreadSpec
from repro.graphs.paper_fig1 import (
    FIG1_SPILLED,
    FIG1_WIRE_EDGE,
    paper_fig1,
)
from repro.scheduling.asap_alap import alap_schedule
from repro.scheduling.resources import ALU, MEM


@dataclass(frozen=True)
class Figure1Numbers:
    """All measured quantities of the walkthrough."""

    alap_length: int
    soft_states: int
    soft_after_spill: int
    hard_after_spill: int
    soft_after_wire: int
    hard_after_wire: int

    PAPER_SOFT_STATES = 5
    PAPER_AFTER_SPILL = 6
    PAPER_AFTER_WIRE = 5


def _fresh_scheduler() -> ThreadedScheduler:
    # Two compute units (every Figure 1 op is an ALU addition) plus a
    # memory port that only the spill refinement uses.
    threads = [
        ThreadSpec(fu_type=ALU, label="fu0"),
        ThreadSpec(fu_type=ALU, label="fu1"),
        ThreadSpec(fu_type=MEM, label="mem0"),
    ]
    return ThreadedScheduler(paper_fig1(), threads=threads, meta="meta2").run()


def figure1_walkthrough() -> Figure1Numbers:
    """Compute the walkthrough numbers (fresh graphs for each leg)."""
    alap_length = alap_schedule(paper_fig1()).length

    base = _fresh_scheduler()
    soft_states = base.diameter

    spill_leg = _fresh_scheduler()
    insert_spill(spill_leg.state, FIG1_SPILLED)
    soft_after_spill = spill_leg.diameter
    # Hard patch: two fresh steps (store + load) extend the schedule.
    hard_after_spill = soft_states + 2

    wire_leg = _fresh_scheduler()
    insert_wire_delay(wire_leg.state, *FIG1_WIRE_EDGE, delay=1)
    soft_after_wire = wire_leg.diameter
    # Hard patch: one fresh step for the wire vertex.
    hard_after_wire = soft_states + 1

    return Figure1Numbers(
        alap_length=alap_length,
        soft_states=soft_states,
        soft_after_spill=soft_after_spill,
        hard_after_spill=hard_after_spill,
        soft_after_wire=soft_after_wire,
        hard_after_wire=hard_after_wire,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    argparse.ArgumentParser(
        prog="repro figure1",
        description="Replay the paper's Figure 1 walkthrough.",
    ).parse_args(argv)
    numbers = figure1_walkthrough()
    print("Figure 1 walkthrough (paper values in parentheses)")
    print(f"  (b) hard ALAP schedule:      {numbers.alap_length} states")
    print(
        f"  (e) soft schedule:           {numbers.soft_states} states "
        f"({Figure1Numbers.PAPER_SOFT_STATES})"
    )
    print(
        f"  (c) spill of v3  — soft:     {numbers.soft_after_spill} states "
        f"({Figure1Numbers.PAPER_AFTER_SPILL}); hard patch: "
        f"{numbers.hard_after_spill}"
    )
    print(
        f"  (d) wire delay   — soft:     {numbers.soft_after_wire} states "
        f"({Figure1Numbers.PAPER_AFTER_WIRE}); hard patch: "
        f"{numbers.hard_after_wire}"
    )
    return 0


if __name__ == "__main__":
    main()
