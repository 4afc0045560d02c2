"""Tests for job specs, algorithm resolution, and result records."""

import pickle

import pytest

from repro.engine.algorithms import ALGORITHMS, algorithm_ids
from repro.engine.job import (
    GraphSpec,
    JobResult,
    JobSpec,
    anytime_rank,
    canonical_algorithm,
    improves_result,
)
from repro.errors import SchedulingError
from repro.graphs import hal
from repro.ir.serialize import dfg_fingerprint
from repro.scheduling.resources import ResourceSet


class TestGraphSpec:
    def test_registry_build_matches_factory(self):
        spec = GraphSpec.registry("hal")
        built = spec.build()
        assert dfg_fingerprint(built) == dfg_fingerprint(hal())
        assert spec.describe() == "HAL"

    def test_random_requires_seed(self):
        with pytest.raises(SchedulingError):
            GraphSpec.random("layered", num_nodes=10)

    def test_random_unknown_family(self):
        with pytest.raises(SchedulingError):
            GraphSpec.random("bogus", num_nodes=10, seed=1)

    def test_random_is_deterministic(self):
        spec = GraphSpec.random("layered", num_nodes=30, seed=7)
        assert dfg_fingerprint(spec.build()) == dfg_fingerprint(spec.build())

    def test_inline_round_trip(self):
        spec = GraphSpec.inline(hal())
        assert dfg_fingerprint(spec.build()) == dfg_fingerprint(hal())

    def test_specs_pickle(self):
        for spec in (
            GraphSpec.registry("FIR"),
            GraphSpec.random("expression", num_nodes=12, seed=3),
            GraphSpec.inline(hal()),
        ):
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec
            assert dfg_fingerprint(clone.build()) == dfg_fingerprint(
                spec.build()
            )


#: Every declared alias and the canonical id it resolves to.
ALIASES = {
    "list": "list(ready)",
    "list-ready": "list(ready)",
    "ready": "list(ready)",
    "list-cp": "list(critical-path)",
    "critical-path": "list(critical-path)",
    "fds": "force-directed",
    "meta1": "threaded(meta1)",
    "meta2": "threaded(meta2)",
    "meta3": "threaded(meta3)",
    "meta4": "threaded(meta4)",
    "threaded": "threaded(meta2)",
    "threaded-meta1": "threaded(meta1)",
    "threaded-meta2": "threaded(meta2)",
    "threaded-meta3": "threaded(meta3)",
    "threaded-meta4": "threaded(meta4)",
    "anytime": "bnb-anytime",
    "exact": "bnb-anytime",
    "bnb": "bnb-anytime",
    "hier": "hier-fds",
}

#: The constraints each canonical id accepts; every other one is
#: refused at ``JobSpec.make``.
ACCEPTS = {
    "list(ready)": {"windows", "memory", "io"},
    "list(critical-path)": {"windows", "memory", "io"},
    "force-directed": {"windows", "memory", "io"},
    "threaded(meta1)": set(),
    "threaded(meta2)": set(),
    "threaded(meta3)": set(),
    "threaded(meta4)": set(),
    "bnb-anytime": {"windows", "budget", "io"},
    "hier-fds": set(),
}

CONSTRAINTS = {
    "windows": {"windows": {"a1": (0, 3)}},
    "budget": {"budget": {"nodes": 100}},
    "memory": {"scenario": {"mode": "memory", "banks": 2, "ports": 1}},
    "io": {"scenario": {"mode": "io", "pins": {"a1": 0}}},
}

WINDOW_CAPABLE = (
    "bnb-anytime, force-directed, list(critical-path), list(ready)"
)


class TestAlgorithms:
    @pytest.mark.parametrize(
        "alias,canonical",
        sorted(ALIASES.items())
        + [
            ("LIST-CP", "list(critical-path)"),
            ("threaded(meta2)", "threaded(meta2)"),
            ("EXACT", "bnb-anytime"),
            ("bnb-anytime", "bnb-anytime"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert canonical_algorithm(alias) == canonical

    def test_unknown_algorithm(self):
        with pytest.raises(SchedulingError):
            canonical_algorithm("simulated-annealing")

    def test_tables_cover_every_declaration(self):
        declared = {
            alias: algorithm_id
            for algorithm_id, algorithm in ALGORITHMS.items()
            for alias in algorithm.aliases
        }
        assert declared == ALIASES
        assert list(ACCEPTS) == algorithm_ids()

    @pytest.mark.parametrize("constraint", sorted(CONSTRAINTS))
    @pytest.mark.parametrize("algorithm", sorted(ACCEPTS))
    def test_capability_matrix(self, algorithm, constraint):
        kwargs = CONSTRAINTS[constraint]
        if constraint in ACCEPTS[algorithm]:
            JobSpec.make("HAL", "2+/-,2*", algorithm, **kwargs)
        else:
            with pytest.raises(SchedulingError):
                JobSpec.make("HAL", "2+/-,2*", algorithm, **kwargs)

    @pytest.mark.parametrize(
        "constraint,message",
        [
            (
                "windows",
                "algorithm 'hier-fds' does not support window constraints; "
                f"window-capable algorithms: {WINDOW_CAPABLE}",
            ),
            (
                "budget",
                "algorithm 'hier-fds' does not support a search budget; "
                "budget-capable algorithms: bnb-anytime",
            ),
            (
                "memory",
                "algorithm 'hier-fds' does not account banked-memory "
                "conflicts; memory-capable algorithms: force-directed, "
                "list(critical-path), list(ready)",
            ),
            (
                "io",
                "algorithm 'hier-fds' does not support window constraints, "
                "which the io scenario lowers onto; window-capable "
                f"algorithms: {WINDOW_CAPABLE}",
            ),
        ],
    )
    def test_rejection_text(self, constraint, message):
        with pytest.raises(SchedulingError) as excinfo:
            JobSpec.make(
                "HAL", "2+/-,2*", "hier-fds", **CONSTRAINTS[constraint]
            )
        assert str(excinfo.value) == message


class TestJobSpec:
    def test_make_normalizes(self):
        spec = JobSpec.make("hal", ResourceSet.parse("2+/,2*"), "meta2")
        assert spec.graph == GraphSpec.registry("HAL")
        assert spec.resources == "2+/-,2*"
        assert spec.algorithm == "threaded(meta2)"

    def test_make_accepts_live_graph(self):
        spec = JobSpec.make(hal(), "1+/-,1*", "list")
        assert spec.graph.source == "inline"

    def test_cache_key_varies_per_component(self):
        base = JobSpec.make("hal", "2+/-,2*", "meta2")
        graph_hash = dfg_fingerprint(hal())
        key = base.cache_key(graph_hash)
        assert key != base.cache_key("0" * 64)
        other_res = JobSpec.make("hal", "2+/-,1*", "meta2")
        assert other_res.cache_key(graph_hash) != key
        other_algo = JobSpec.make("hal", "2+/-,2*", "meta3")
        assert other_algo.cache_key(graph_hash) != key
        # Same job spelled differently -> same key.
        same = JobSpec.make("HAL", "2+/,2*", "threaded-meta2")
        assert same.cache_key(graph_hash) == key


class TestBudget:
    GRAPH_HASH = "a" * 64

    def test_budget_extends_the_cache_key(self):
        plain = JobSpec.make("hal", "2+/-,2*", "bnb-anytime")
        budgeted = JobSpec.make(
            "hal", "2+/-,2*", "bnb-anytime", budget={"nodes": 5_000}
        )
        assert plain.cache_key(self.GRAPH_HASH) != budgeted.cache_key(
            self.GRAPH_HASH
        )
        # Field order in the request must not matter.
        same = JobSpec.make(
            "hal",
            "2+/-,2*",
            "bnb-anytime",
            budget={"deadline_ms": 100, "nodes": 5_000},
        )
        other = JobSpec.make(
            "hal",
            "2+/-,2*",
            "bnb-anytime",
            budget={"nodes": 5_000, "deadline_ms": 100},
        )
        assert same.cache_key(self.GRAPH_HASH) == other.cache_key(
            self.GRAPH_HASH
        )

    def test_canonical_strips_the_budget(self):
        budgeted = JobSpec.make(
            "hal", "2+/-,2*", "bnb-anytime", budget={"nodes": 5_000}
        )
        canonical = budgeted.canonical()
        assert canonical.budget == ()
        plain = JobSpec.make("hal", "2+/-,2*", "bnb-anytime")
        assert canonical == plain
        assert plain.canonical() is plain

    @pytest.mark.parametrize(
        "budget",
        [
            {"nodes": 0},
            {"nodes": -5},
            {"nodes": True},
            {"nodes": 1.5},
            {"steps": 10},
        ],
    )
    def test_bad_budgets_rejected(self, budget):
        with pytest.raises(SchedulingError):
            JobSpec.make("hal", "2+/-,2*", "bnb-anytime", budget=budget)

    def test_empty_budget_means_no_budget(self):
        spec = JobSpec.make("hal", "2+/-,2*", "bnb-anytime", budget={})
        assert spec.budget == ()
        assert spec == JobSpec.make("hal", "2+/-,2*", "bnb-anytime")

    def test_budget_requires_a_budget_algorithm(self):
        with pytest.raises(SchedulingError):
            JobSpec.make("hal", "2+/-,2*", "meta2", budget={"nodes": 10})


def _anytime_result(length, proved, nodes, *, failed=False):
    meta = {"bnb": {"proved": proved, "nodes": nodes}}
    return JobResult(
        key="k" * 64,
        graph="HAL",
        graph_hash="h" * 64,
        num_ops=11,
        resources="2+/-,2*",
        algorithm="bnb-anytime",
        length=length,
        runtime_s=0.001,
        artifact=None if failed else {"meta": meta},
        error="boom" if failed else None,
    )


class TestAnytimeRanking:
    def test_rank_orders_length_then_proof_then_effort(self):
        assert anytime_rank(_anytime_result(7, True, 10)) > anytime_rank(
            _anytime_result(7, False, 10)
        )
        assert anytime_rank(_anytime_result(7, False, 0)) > anytime_rank(
            _anytime_result(8, True, 10**9)
        )
        assert anytime_rank(_anytime_result(7, False, 20)) > anytime_rank(
            _anytime_result(7, False, 10)
        )

    def test_improvement_is_strict(self):
        better = _anytime_result(7, True, 10)
        worse = _anytime_result(8, False, 10)
        assert improves_result(better, worse)
        assert not improves_result(worse, better)
        # Equal rank never improves: idempotent peer publishes must
        # not churn the stored entry.
        assert not improves_result(better, _anytime_result(7, True, 10))

    def test_failures_never_win(self):
        ok = _anytime_result(9, False, 1)
        failed = _anytime_result(7, True, 10, failed=True)
        assert not improves_result(failed, ok)
        assert improves_result(ok, failed)


class TestJobResult:
    def test_dict_round_trip(self):
        result = JobResult(
            key="k" * 64,
            graph="HAL",
            graph_hash="h" * 64,
            num_ops=11,
            resources="2+/-,2*",
            algorithm="threaded(meta2)",
            length=8,
            runtime_s=0.0015,
            gap=1,
        )
        assert JobResult.from_dict(result.to_dict()) == result

    def test_artifact_round_trip(self):
        artifact = {
            "format": "repro-schedule-v1",
            "algorithm": "threaded/meta2",
            "length": 8,
            "ops": {"m1": {"step": 0, "unit": "mul[0]"}},
            "inserted": ["spill1"],
        }
        result = JobResult(
            key="k" * 64,
            graph="HAL",
            graph_hash="h" * 64,
            num_ops=11,
            resources="2+/-,2*",
            algorithm="threaded(meta2)",
            length=8,
            runtime_s=0.0015,
            artifact=artifact,
        )
        clone = JobResult.from_dict(result.to_dict())
        assert clone == result
        assert clone.artifact == artifact
        # And nothing is lost through a JSON wire format.
        import json

        wired = JobResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert wired == result
