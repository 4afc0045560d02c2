"""Hard (traditional) scheduling: baselines and shared infrastructure.

This package hosts everything a *hard* scheduler needs — the resource
model with the paper's ``"2+/-,2*"`` constraint notation, the
:class:`~repro.scheduling.base.Schedule` container with validity
checking, and the baseline algorithms the paper compares against or
cites: resource-constrained list scheduling, ASAP/ALAP, force-directed
scheduling, and an anytime branch-and-bound search with Russian-doll
lower bounds that proves optima on small graphs.
"""

from repro.scheduling.resources import FuType, ResourceSet, FU_TYPES
from repro.scheduling.base import (
    Schedule,
    artifact_start_times,
    schedule_artifact,
    validate_schedule,
)
from repro.scheduling.asap_alap import asap_schedule, alap_schedule
from repro.scheduling.frames import FrameEngine
from repro.scheduling.list_scheduler import (
    ListPriority,
    list_schedule,
)
from repro.scheduling.force_directed import (
    force_directed_schedule,
    force_directed_schedule_reference,
)
from repro.scheduling.bnb import AnytimeBnB, bnb_anytime_schedule
from repro.scheduling.simulator import evaluate_dfg, simulate_schedule

__all__ = [
    "FuType",
    "ResourceSet",
    "FU_TYPES",
    "Schedule",
    "artifact_start_times",
    "schedule_artifact",
    "validate_schedule",
    "asap_schedule",
    "alap_schedule",
    "FrameEngine",
    "ListPriority",
    "list_schedule",
    "force_directed_schedule",
    "force_directed_schedule_reference",
    "AnytimeBnB",
    "bnb_anytime_schedule",
    "evaluate_dfg",
    "simulate_schedule",
]
