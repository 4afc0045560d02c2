"""Job and result records for the batch-scheduling engine.

A scheduling *job* is ``(graph, resources, algorithm)``.  To make jobs
cheap to ship across a process pool and safe to cache, a job never holds
a live :class:`~repro.ir.dfg.DataFlowGraph`; it holds a
:class:`GraphSpec` — a small, picklable, deterministic recipe (registry
name, seeded random-DAG parameters, or inline JSON) that any process can
rebuild into the identical graph.

The cache key of a job is content-addressed: sha256 over the *built*
graph's fingerprint (see :func:`repro.ir.serialize.dfg_fingerprint`),
the canonical resource notation, and the canonical algorithm id.  Two
different specs that build the same graph therefore share cache entries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.engine.algorithms import (
    FDS_SLACK,  # noqa: F401  (long-standing import path)
    canonical_algorithm,
    require_capability,
)
from repro.errors import SchedulingError
from repro.graphs.random_dags import (
    random_expression_dag,
    random_hier_dag,
    random_layered_dag,
)
from repro.engine.scenario import (
    Scenario,
    constraint_pairs,
    normalize_scenario,
    scenario_key_text,
    sorted_pairs,
)
from repro.graphs.registry import get_graph
from repro.ir.dfg import DataFlowGraph, check_steps
from repro.ir.serialize import dumps_dfg, loads_dfg
from repro.scheduling.resources import ResourceSet

# ----------------------------------------------------------------------
# Graph specs: picklable recipes for graphs.
# ----------------------------------------------------------------------

_RANDOM_FAMILIES = {
    "layered": random_layered_dag,
    "expression": random_expression_dag,
    "hier": random_hier_dag,
}


@dataclass(frozen=True)
class GraphSpec:
    """A deterministic, picklable recipe for building a graph.

    ``source`` selects the recipe kind:

    ``registry``
        ``name`` is a benchmark name for :func:`repro.graphs.get_graph`.
    ``random``
        ``name`` is a generator family (``layered`` or ``expression``)
        and ``params`` its keyword arguments (always including ``seed``),
        stored as a sorted tuple of pairs so the spec stays hashable.
    ``inline``
        ``payload`` is ``dumps_dfg`` JSON of an arbitrary graph.
    """

    source: str
    name: str = ""
    params: Tuple[Tuple[str, Any], ...] = ()
    payload: Optional[str] = None

    @classmethod
    def registry(cls, name: str) -> "GraphSpec":
        return cls(source="registry", name=name.upper())

    @classmethod
    def random(cls, family: str = "layered", **params: Any) -> "GraphSpec":
        if family not in _RANDOM_FAMILIES:
            known = ", ".join(sorted(_RANDOM_FAMILIES))
            raise SchedulingError(
                f"unknown random-DAG family {family!r}; known: {known}"
            )
        if "seed" not in params:
            raise SchedulingError(
                "random GraphSpec requires an explicit seed for determinism"
            )
        return cls(
            source="random",
            name=family,
            params=tuple(sorted(params.items())),
        )

    @classmethod
    def inline(cls, dfg: DataFlowGraph) -> "GraphSpec":
        return cls(
            source="inline",
            name=dfg.name or "inline",
            payload=dumps_dfg(dfg, indent=None),
        )

    def build(self) -> DataFlowGraph:
        """Rebuild the graph; identical output in any process."""
        if self.source == "registry":
            return get_graph(self.name)
        if self.source == "random":
            factory = _RANDOM_FAMILIES[self.name]
            return factory(**dict(self.params))
        if self.source == "inline":
            return loads_dfg(self.payload)
        raise SchedulingError(f"unknown GraphSpec source {self.source!r}")

    def describe(self) -> str:
        """Short human-readable label (``HAL``, ``layered(n=50,s=3)``)."""
        if self.source == "registry":
            return self.name
        if self.source == "random":
            params = dict(self.params)
            inner = ",".join(
                f"{key}={params[key]}" for key in sorted(params)
            )
            return f"{self.name}({inner})"
        return self.name


# ----------------------------------------------------------------------
# Jobs and results.
# ----------------------------------------------------------------------

#: Per-op start-window pins as stored on a spec: sorted
#: ``((op, (lo, hi)), ...)`` pairs (hashable for coalescing).
Windows = Tuple[Tuple[str, Tuple[int, int]], ...]


def _normalize_windows(windows, algorithm: str) -> Windows:
    """Validate and canonicalize per-op window pins for a spec.

    Accepts a ``{op: (lo, hi)}`` mapping or an iterable of pairs and
    returns the sorted, hashable tuple form.  Bounds are ints in
    ``[0, MAX_STEPS]`` (:func:`~repro.ir.dfg.check_steps`) with
    ``lo <= hi``.  Raises :class:`SchedulingError` on any malformed
    shape or bound, duplicate ops, or an algorithm without the
    ``windows`` capability.
    """
    if not windows:
        return ()
    require_capability(
        algorithm,
        "windows",
        "algorithm {algorithm!r} does not support window constraints; "
        "window-capable algorithms: {known}",
    )
    normalized = []
    for op, bounds in constraint_pairs(
        windows, "windows must map op ids to (lo, hi) pairs"
    ):
        try:
            lo, hi = bounds
        except (TypeError, ValueError):
            raise SchedulingError(
                f"window for {op!r} must be a (lo, hi) pair, "
                f"got {bounds!r}"
            ) from None
        check_steps(f"window bound for {op!r}", lo, SchedulingError)
        check_steps(f"window bound for {op!r}", hi, SchedulingError)
        if lo > hi:
            raise SchedulingError(
                f"window for {op!r} must satisfy lo <= hi, "
                f"got ({lo}, {hi})"
            )
        normalized.append((str(op), (lo, hi)))
    return sorted_pairs(normalized, "window for op")


#: Budget in its canonical hashable form: sorted ``(field, value)``
#: pairs, e.g. ``(("deadline_ms", 500), ("nodes", 100000))``.
Budget = Tuple[Tuple[str, int], ...]

_BUDGET_FIELDS = ("deadline_ms", "nodes")


def _normalize_budget(budget, algorithm: str) -> Budget:
    """Validate and canonicalize a search budget for a spec.

    Accepts a ``{"nodes": N, "deadline_ms": M}`` mapping (either key
    optional) or an iterable of pairs and returns the sorted, hashable
    tuple form.  Raises :class:`SchedulingError` on a malformed shape,
    unknown fields, non-positive values, duplicates, or an algorithm
    without the ``budget`` capability.
    """
    if not budget:
        return ()
    require_capability(
        algorithm,
        "budget",
        "algorithm {algorithm!r} does not support a search budget; "
        "budget-capable algorithms: {known}",
    )
    normalized = []
    for field, value in constraint_pairs(
        budget, "budget must map 'nodes'/'deadline_ms' to integers"
    ):
        field = str(field)
        if field not in _BUDGET_FIELDS:
            known = ", ".join(_BUDGET_FIELDS)
            raise SchedulingError(
                f"unknown budget field {field!r}; known: {known}"
            )
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchedulingError(
                f"budget field {field!r} must be an integer, "
                f"got {value!r}"
            )
        if value <= 0:
            raise SchedulingError(
                f"budget field {field!r} must be positive, got {value}"
            )
        normalized.append((field, value))
    return sorted_pairs(normalized, "budget field")


def _check_inline_ops(dfg: DataFlowGraph, spec: "JobSpec") -> None:
    """Refuse window ops, io pins and reliability ops that an inline
    graph lacks: the graph is in hand, so there is nothing to defer."""
    scenario = dict(spec.scenario)
    refs = [("window", op) for op, _ in spec.windows]
    refs += [("io pin", op) for op, _ in scenario.get("pins", ())]
    refs += [("reliability scenario", op) for op in scenario.get("ops", ())]
    for what, op in refs:
        if op not in dfg:
            raise SchedulingError(
                f"{what} references unknown op {op!r} in the inline graph"
            )


@dataclass(frozen=True)
class JobSpec:
    """One unit of batch work: schedule ``graph`` on ``resources``.

    ``resources`` is kept in the paper's canonical notation (a string)
    so the spec pickles and hashes trivially; use :meth:`make` to accept
    either a string or a :class:`ResourceSet` and normalize both.

    ``windows`` optionally pins per-op ``(lo, hi)`` start bounds — the
    boundary-constraint mechanism of hierarchical scheduling.  It is
    stored as a sorted tuple of pairs so specs stay hashable (the
    request coalescer keys its in-flight map on the spec) and two
    equal window sets always produce the same cache key.

    ``budget`` optionally bounds anytime search (``nodes`` expanded
    and/or ``deadline_ms`` wall clock).  Budgeted runs get their own
    cache identity — a 10ms answer and a 10s answer for the same graph
    are different results — while the budget-free spec is the
    *canonical* key that improver jobs rewrite in place as they tighten
    the incumbent.

    ``scenario`` optionally selects a richer constraint model (see
    :mod:`repro.engine.scenario`): banked memory ports, pinned I/O
    timing, or reliability hardening.  Stored in the same sorted-tuple
    discipline as ``windows``/``budget``; scenario-free specs keep
    byte-identical historical cache keys.
    """

    graph: GraphSpec
    resources: str
    algorithm: str
    windows: Windows = ()
    budget: Budget = ()
    scenario: Scenario = ()

    @classmethod
    def make(
        cls,
        graph,
        resources,
        algorithm: str,
        windows=None,
        budget=None,
        scenario=None,
    ) -> "JobSpec":
        """Validate and normalize every field of a job.

        The one validator of what a job holds: resources, algorithm,
        windows, budget and scenario.  Every malformed value raises a
        :class:`~repro.errors.ReproError`.  An inline ``graph`` (a
        :class:`DataFlowGraph`) is in hand, so window ops, io pins and
        reliability ops it lacks are refused here too; registry and
        random graphs defer that check to the executing engine.
        """
        dfg = graph if isinstance(graph, DataFlowGraph) else None
        if dfg is not None:
            graph = GraphSpec.inline(dfg)
        if not isinstance(graph, GraphSpec):
            graph = GraphSpec.registry(str(graph))
        if isinstance(resources, ResourceSet):
            notation = resources.notation()
        else:
            notation = ResourceSet.parse(resources).notation()
        algorithm_id = canonical_algorithm(algorithm)
        spec = cls(
            graph=graph,
            resources=notation,
            algorithm=algorithm_id,
            windows=_normalize_windows(windows, algorithm_id),
            budget=_normalize_budget(budget, algorithm_id),
            scenario=normalize_scenario(scenario, algorithm_id),
        )
        if dfg is not None and (spec.windows or spec.scenario):
            _check_inline_ops(dfg, spec)
        return spec

    def resource_set(self) -> ResourceSet:
        return ResourceSet.parse(self.resources)

    def windows_dict(self) -> Dict[str, Tuple[int, int]]:
        """The window pins as a ``{op: (lo, hi)}`` mapping."""
        return dict(self.windows)

    def budget_dict(self) -> Dict[str, int]:
        """The budget as a ``{field: value}`` mapping."""
        return dict(self.budget)

    def scenario_dict(self) -> Dict[str, Any]:
        """The scenario as a plain JSON-safe mapping (``{}`` if none)."""
        data = dict(self.scenario)
        if data.get("mode") == "io":
            data["pins"] = dict(data["pins"])
        elif data.get("mode") == "reliability":
            data["ops"] = list(data["ops"])
        return data

    def canonical(self) -> "JobSpec":
        """The budget-free spec whose cache entry improvers rewrite."""
        if not self.budget:
            return self
        return JobSpec(
            graph=self.graph,
            resources=self.resources,
            algorithm=self.algorithm,
            windows=self.windows,
            scenario=self.scenario,
        )

    def cache_key(self, graph_hash: str) -> str:
        """Content-addressed key: graph hash × resources × algorithm.

        Window pins, budgets, and scenarios append extra components;
        specs without them keep the exact historical key text, so
        existing cache entries (and cross-version clusters) stay
        addressable.
        """
        text = f"{graph_hash}|{self.resources}|{self.algorithm}"
        if self.windows:
            pins = ";".join(
                f"{op}@{lo}:{hi}" for op, (lo, hi) in self.windows
            )
            text += f"|windows:{pins}"
        if self.budget:
            caps = ";".join(f"{k}={v}" for k, v in self.budget)
            text += f"|budget:{caps}"
        if self.scenario:
            text += f"|scenario:{scenario_key_text(self.scenario)}"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def validated_windows(
    dfg: DataFlowGraph, spec: JobSpec
) -> Dict[str, Tuple[int, int]]:
    """The spec's window pins, checked against the built graph.

    Raises :class:`SchedulingError` (never
    :class:`~repro.errors.UnknownNodeError`, which is a
    :class:`~repro.errors.GraphError`) on an unknown op id, so a bad
    window is a structured per-job failure rather than a batch abort.
    """
    windows = spec.windows_dict()
    for op in windows:
        if op not in dfg:
            raise SchedulingError(
                f"window references unknown op {op!r} in graph "
                f"{spec.graph.describe()!r}"
            )
    return windows


@dataclass(frozen=True)
class JobResult:
    """Structured outcome of one job (JSON-round-trippable).

    ``num_ops`` counts the *input* graph's operations, captured before
    the scheduler runs — soft scheduling may grow the graph in place
    (spill/wire insertions), so sampling afterwards would disagree
    across algorithms for the same graph.

    ``gap`` is the optimality gap (``length - optimum``) when the
    engine was asked to compute gaps, the graph is small enough for
    the ``bnb-anytime`` comparator, and the comparator proved its
    optimum; otherwise ``None``.
    ``cached`` marks results served from the result cache (including
    within-batch deduplication) rather than computed fresh.

    ``artifact`` is the full-schedule payload (see
    :func:`repro.scheduling.base.schedule_artifact`) when the job ran
    with ``capture_schedule=True``; otherwise ``None``.  It is a plain
    JSON-safe dict so the record round-trips through :meth:`to_dict` /
    :meth:`from_dict` and the disk cache unchanged.

    ``error`` marks a *structured per-job failure*: the scheduler
    raised a :class:`~repro.errors.SchedulingError` (e.g. an infeasible
    latency in the force-directed fixing sweep, or a resource set that
    cannot execute some op).  Failed jobs report ``length == -1``, no
    gap, and no artifact, and they never abort the batch around them —
    the other jobs' results come back as usual.
    """

    key: str
    graph: str
    graph_hash: str
    num_ops: int
    resources: str
    algorithm: str
    length: int
    runtime_s: float
    gap: Optional[int] = None
    cached: bool = False
    artifact: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the job produced a schedule (no structured error)."""
        return self.error is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "graph": self.graph,
            "graph_hash": self.graph_hash,
            "num_ops": self.num_ops,
            "resources": self.resources,
            "algorithm": self.algorithm,
            "length": self.length,
            "runtime_s": self.runtime_s,
            "gap": self.gap,
            "cached": self.cached,
            "artifact": self.artifact,
            "error": self.error,
        }

    def public_dict(self) -> Dict[str, Any]:
        """The deterministic subset of :meth:`to_dict`, for serving.

        Excludes ``runtime_s`` and ``cached`` — both vary run to run —
        so the serialized form of a result is a pure function of the
        job.  The serving front end builds response bodies from this so
        freshly computed, coalesced, and cache-served responses for the
        same request are byte-identical; the volatile fields travel in
        response headers instead.
        """
        data = self.to_dict()
        del data["runtime_s"]
        del data["cached"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        return cls(
            key=data["key"],
            graph=data["graph"],
            graph_hash=data["graph_hash"],
            num_ops=int(data["num_ops"]),
            resources=data["resources"],
            algorithm=data["algorithm"],
            length=int(data["length"]),
            runtime_s=float(data["runtime_s"]),
            gap=data.get("gap"),
            cached=bool(data.get("cached", False)),
            artifact=data.get("artifact"),
            error=data.get("error"),
        )


def anytime_meta(result: JobResult) -> Dict[str, Any]:
    """The anytime-search metadata of a result (``{}`` when absent).

    Anytime runners record proof state under ``artifact.meta.bnb``:
    ``proved`` (optimality certificate), ``lower_bound``, ``nodes``
    expanded, the seed length, and the incumbent trajectory.
    """
    artifact = result.artifact or {}
    meta = artifact.get("meta") or {}
    bnb = meta.get("bnb")
    return bnb if isinstance(bnb, dict) else {}


def anytime_rank(result: JobResult) -> Tuple[int, int, int]:
    """Quality order for anytime results at the same cache key.

    Higher is strictly better: shorter schedule first, then a proved
    optimum beats an unproved incumbent of the same length, then more
    search effort (a larger explored-node count certifies a tighter
    residual gap even without a proof).
    """
    meta = anytime_meta(result)
    return (
        -result.length,
        1 if meta.get("proved") else 0,
        int(meta.get("nodes") or 0),
    )


def improves_result(new: JobResult, old: JobResult) -> bool:
    """True when ``new`` strictly improves ``old`` under anytime order.

    This is the in-place rewrite guard: a cached anytime entry is only
    ever replaced by a strictly better one, so concurrent improvers
    (and stale peer publishes) can race without ever regressing the
    stored incumbent.  Failed results never improve anything; any ok
    result improves a failed one.
    """
    if not new.ok:
        return False
    if not old.ok:
        return True
    return anytime_rank(new) > anytime_rank(old)
