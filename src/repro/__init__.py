"""repro: a reproduction of "Soft Scheduling in High Level Synthesis".

Zhu & Gajski (DAC 1999) propose *soft scheduling*: an online scheduler
whose state is a partial order (a K-threaded precedence graph) instead
of a fixed operation-to-step mapping, so later design phases — register
spilling, interconnect delay, engineering changes — refine the schedule
instead of invalidating it.

Quickstart::

    from repro import hal, ResourceSet, threaded_schedule

    schedule = threaded_schedule(hal(), ResourceSet.parse("2+/-,2*"))
    print(schedule.length)   # 8 control steps, matching the paper
    print(schedule.table())

Package map (details in README.md):

=====================  =============================================
``repro.ir``           dataflow graphs, analyses, behavioral frontend
``repro.graphs``       benchmark graphs (HAL, AR, EF, FIR, ...)
``repro.scheduling``   hard baselines: list, ASAP/ALAP, FDS, BnB
``repro.core``         threaded (soft) scheduling — the contribution
``repro.allocation``   lifetimes, left-edge registers, spills, binding
``repro.physical``     floorplan + wire-delay model + back-annotation
``repro.rtl``          FSM controller, datapath netlist, Verilog
``repro.flows``        hard flow vs soft flow, comparison reports
``repro.experiments``  harnesses regenerating every figure/table
=====================  =============================================
"""

from repro.ir.dfg import DataFlowGraph, Edge, Node
from repro.ir.ops import DelayModel, OpKind
from repro.ir.builder import GraphBuilder
from repro.ir.parser import parse_program
from repro.ir.lowering import lower_program
from repro.graphs import (
    ar_filter,
    dct8,
    elliptic_wave_filter,
    fir,
    get_graph,
    hal,
    list_graphs,
    paper_fig1,
    random_layered_dag,
)
from repro.scheduling import (
    ListPriority,
    ResourceSet,
    Schedule,
    alap_schedule,
    asap_schedule,
    force_directed_schedule,
    list_schedule,
    validate_schedule,
)
from repro.core import (
    NaiveSoftScheduler,
    ThreadedGraph,
    ThreadedScheduler,
    ThreadSpec,
    harden,
    insert_spill,
    insert_wire_delay,
    threaded_schedule,
)

__version__ = "1.1.0"

__all__ = [
    "DataFlowGraph",
    "Node",
    "Edge",
    "OpKind",
    "DelayModel",
    "GraphBuilder",
    "parse_program",
    "lower_program",
    "hal",
    "fir",
    "ar_filter",
    "elliptic_wave_filter",
    "dct8",
    "paper_fig1",
    "random_layered_dag",
    "get_graph",
    "list_graphs",
    "ResourceSet",
    "Schedule",
    "ListPriority",
    "list_schedule",
    "asap_schedule",
    "alap_schedule",
    "force_directed_schedule",
    "validate_schedule",
    "ThreadedGraph",
    "ThreadedScheduler",
    "ThreadSpec",
    "threaded_schedule",
    "harden",
    "NaiveSoftScheduler",
    "insert_spill",
    "insert_wire_delay",
    "__version__",
]
