"""Experiment E5: the Section 1 phase-coupling scenarios, quantified.

For each benchmark, run the hard flow (schedule, spill-patch, wire-delay
patch) and the soft flow (threaded schedule, spill/wire refinements,
harden once) under identical constraints and compare final lengths.
This quantifies at benchmark scale what Figure 1 shows on seven
vertices: refinements that cost a hard schedule full inserted steps are
largely absorbed by the soft schedule's slack.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.tables import render_table
from repro.flows.report import compare_flows
from repro.graphs.registry import get_graph
from repro.physical.wire_model import WireModel
from repro.scheduling.resources import ResourceSet


@dataclass(frozen=True)
class PhaseCouplingRow:
    """One benchmark's hard-vs-soft comparison."""

    benchmark: str
    constraint: str
    max_registers: int
    hard_initial: int
    hard_final: int
    soft_initial: int
    soft_final: int
    spills: int

    @property
    def hard_growth(self) -> int:
        return self.hard_final - self.hard_initial

    @property
    def soft_growth(self) -> int:
        return self.soft_final - self.soft_initial


def phase_coupling_table(
    benchmarks: Sequence[str] = ("HAL", "AR", "EF", "FIR", "DCT8"),
    constraint: str = "2+/-,1*",
    max_registers: int = 4,
    wire_model: Optional[WireModel] = None,
) -> List[PhaseCouplingRow]:
    """Run both flows per benchmark and collect the growth comparison."""
    if wire_model is None:
        wire_model = WireModel(free_length=1.0, cells_per_cycle=3.0)
    resources = ResourceSet.parse(constraint)
    rows: List[PhaseCouplingRow] = []
    for name in benchmarks:
        graph = get_graph(name)
        comparison = compare_flows(
            graph,
            resources,
            max_registers=max_registers,
            wire_model=wire_model,
        )
        rows.append(
            PhaseCouplingRow(
                benchmark=name,
                constraint=constraint,
                max_registers=max_registers,
                hard_initial=comparison.hard.initial.length,
                hard_final=comparison.hard.final.length,
                soft_initial=comparison.soft.initial.length,
                soft_final=comparison.soft.final.length,
                spills=len(comparison.hard.spilled_values),
            )
        )
    return rows


def render(rows: List[PhaseCouplingRow]) -> str:
    table = []
    for r in rows:
        table.append(
            [
                r.benchmark,
                r.spills,
                r.hard_initial,
                r.hard_final,
                f"+{r.hard_growth}",
                r.soft_initial,
                r.soft_final,
                f"+{r.soft_growth}",
            ]
        )
    return render_table(
        [
            "BM",
            "spills",
            "hard init",
            "hard final",
            "hard +",
            "soft init",
            "soft final",
            "soft +",
        ],
        table,
        title=(
            "Phase coupling: spill + wire-delay refinement cost, "
            "hard patching vs soft refinement"
        ),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    argparse.ArgumentParser(
        prog="repro coupling",
        description="Compare hard patching with soft refinement.",
    ).parse_args(argv)
    rows = phase_coupling_table()
    print(render(rows))
    hard_total = sum(r.hard_growth for r in rows)
    soft_total = sum(r.soft_growth for r in rows)
    print(
        f"\ntotal schedule growth across benchmarks: hard +{hard_total}, "
        f"soft +{soft_total}"
    )
    return 0


if __name__ == "__main__":
    main()
