"""Bring your own workload: compare every scheduler on custom code.

Writes a small DSP kernel in the behavioral language, lowers it, and
races all schedulers in the library over a sweep of resource
constraints — the comparison a downstream user would run first.

Run:  python examples/custom_benchmark.py
"""

from repro import (
    ListPriority,
    ResourceSet,
    list_schedule,
    lower_program,
    parse_program,
    threaded_schedule,
)
from repro.engine.algorithms import DEFAULT_BNB_NODE_BUDGET
from repro.experiments.tables import render_table
from repro.ir.analysis import diameter
from repro.scheduling import bnb_anytime_schedule

SOURCE = """
# A complex multiply-accumulate with a magnitude check.
re = (ar * br) - (ai * bi)
im = (ar * bi) + (ai * br)
accr = accr_in + re
acci = acci_in + im
mag = (accr * accr) + (acci * acci)
ovf = mag > limit
"""

CONSTRAINTS = ("1+/-,1*", "2+/-,1*", "2+/-,2*", "4+/-,4*")


def main() -> None:
    graph = lower_program(parse_program(SOURCE), name="cmac").dfg
    print(f"kernel: {graph.num_nodes} ops "
          f"({graph.op_histogram()}), critical path {diameter(graph)}")
    print()

    rows = []
    for constraint in CONSTRAINTS:
        resources = ResourceSet.parse(constraint)
        row = [constraint]
        row.append(
            list_schedule(graph, resources, ListPriority.READY_ORDER).length
        )
        row.append(
            list_schedule(graph, resources, ListPriority.SINK_DISTANCE).length
        )
        for meta in ("meta1", "meta2", "meta3", "meta4"):
            row.append(threaded_schedule(graph, resources, meta=meta).length)
        # The branch-and-bound length is an optimum only once proved;
        # a cell the node budget cut short is its best so far, marked "?".
        best = bnb_anytime_schedule(
            graph, resources, budget={"nodes": DEFAULT_BNB_NODE_BUDGET}
        )
        proved = best.meta["bnb"]["proved"]
        row.append(f"{best.length}{'' if proved else '?'}")
        rows.append(row)

    print(
        render_table(
            ["resources", "list/fifo", "list/cp",
             "thr/m1", "thr/m2", "thr/m3", "thr/m4", "exact"],
            rows,
            title="schedule length in control steps",
        )
    )
    print()
    print("The exact column (proved optima; '?' marks an unproved cell)")
    print("certifies how close the heuristics are;")
    print("the threaded columns stay within a step of the best.")


if __name__ == "__main__":
    main()
