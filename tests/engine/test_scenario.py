"""Tests for the scenario constraint model: normalization, cache-key
discipline, lowering, and end-to-end execution."""

import hashlib

import pytest

from repro.engine.algorithms import capable
from repro.engine.batch import BatchEngine, execute_job
from repro.engine.job import JobSpec
from repro.engine.scenario import (
    SCENARIO_MODES,
    lower_scenario,
    normalize_scenario,
    scenario_key_text,
    scenario_mode,
)
from repro.errors import SchedulingError
from repro.graphs.registry import get_graph
from repro.graphs.scenario import IOPIN_PINS, TMRMARK_OPS
from repro.scheduling.resources import ResourceSet


def _norm(scenario, algorithm="list(ready)"):
    return normalize_scenario(scenario, algorithm)


class TestNormalize:
    def test_absent_scenario_is_empty_tuple(self):
        assert _norm(None) == ()
        assert _norm({}) == ()

    def test_memory_canonical_form(self):
        assert _norm({"mode": "memory", "banks": 2, "ports": 1}) == (
            ("banks", 2),
            ("mode", "memory"),
            ("ports", 1),
        )

    def test_io_pins_sorted(self):
        got = _norm({"mode": "io", "pins": {"b": 5, "a": 3}})
        assert got == (("mode", "io"), ("pins", (("a", 3), ("b", 5))))

    def test_reliability_ops_sorted(self):
        got = _norm({"mode": "reliability", "ops": ["m2", "m1"]})
        assert got == (("mode", "reliability"), ("ops", ("m1", "m2")))

    def test_normalized_tuple_round_trips(self):
        first = _norm({"mode": "io", "pins": {"a": 1}})
        assert _norm(first) == first

    @pytest.mark.parametrize(
        "scenario",
        [
            "memory",
            {"mode": "warp"},
            {"mode": None},
            {"banks": 2, "ports": 1},
            {"mode": "memory", "banks": 2},
            {"mode": "memory", "banks": 2, "ports": 1, "extra": 1},
            {"mode": "memory", "banks": 0, "ports": 1},
            {"mode": "memory", "banks": True, "ports": 1},
            {"mode": "memory", "banks": "2", "ports": 1},
            {"mode": "io"},
            {"mode": "io", "pins": {}},
            {"mode": "io", "pins": 7},
            {"mode": "io", "pins": {"a": -1}},
            {"mode": "io", "pins": {"a": True}},
            {"mode": "io", "pins": {"a": "3"}},
            {"mode": "io", "pins": [("a", 1), ("a", 2)]},
            {"mode": "reliability"},
            {"mode": "reliability", "ops": []},
            {"mode": "reliability", "ops": "m1"},
            {"mode": "reliability", "ops": 3},
            {"mode": "reliability", "ops": ["m1", "m1"]},
        ],
        ids=repr,
    )
    def test_malformed_scenarios_rejected(self, scenario):
        with pytest.raises(SchedulingError):
            _norm(scenario)

    def test_memory_mode_gated_to_capable_algorithms(self):
        with pytest.raises(SchedulingError) as excinfo:
            _norm(
                {"mode": "memory", "banks": 2, "ports": 1},
                algorithm="bnb-anytime",
            )
        assert "banked" in str(excinfo.value)
        assert "list(ready)" in capable("banked_mem")

    def test_io_mode_gated_to_window_algorithms(self):
        with pytest.raises(SchedulingError):
            _norm({"mode": "io", "pins": {"a": 0}}, algorithm="hier-fds")

    def test_reliability_rides_any_algorithm(self):
        scenario = {"mode": "reliability", "ops": ["m1"]}
        for algorithm in ("exact", "bnb-anytime", "threaded(meta2)"):
            assert scenario_mode(_norm(scenario, algorithm)) == (
                "reliability"
            )

    def test_modes_enumerated(self):
        assert SCENARIO_MODES == ("io", "memory", "reliability")


class TestCacheKeys:
    def test_scenario_free_key_is_the_historical_golden(self):
        # Byte-compat guard: this literal predates windows, budgets,
        # and scenarios; it must never change.
        spec = JobSpec.make("HAL", "2+/-,2*", "list")
        expected = hashlib.sha256(
            b"abc123|2+/-,2*|list(ready)"
        ).hexdigest()
        assert spec.cache_key("abc123") == expected

    def test_scenario_appends_after_windows_and_budget(self):
        spec = JobSpec.make(
            "HAL",
            "2+/-,2*",
            "bnb-anytime",
            windows={"m1": (0, 9)},
            budget={"nodes": 100},
            scenario={"mode": "io", "pins": {"m1": 2}},
        )
        expected = hashlib.sha256(
            b"abc123|2+/-,2*|bnb-anytime"
            b"|windows:m1@0:9|budget:nodes=100|scenario:io;pins=m1@2"
        ).hexdigest()
        assert spec.cache_key("abc123") == expected

    @pytest.mark.parametrize(
        "scenario,text",
        [
            (
                {"mode": "memory", "banks": 2, "ports": 2},
                "memory;banks=2;ports=2",
            ),
            ({"mode": "io", "pins": {"b": 5, "a": 3}}, "io;pins=a@3,b@5"),
            (
                {"mode": "reliability", "ops": ["m2", "m1"]},
                "reliability;ops=m1,m2",
            ),
        ],
    )
    def test_key_text_rendering(self, scenario, text):
        assert scenario_key_text(_norm(scenario)) == text

    def test_scenario_changes_the_key(self):
        plain = JobSpec.make("TMRMARK", "2+/-,2*", "list")
        hardened = JobSpec.make(
            "TMRMARK",
            "2+/-,2*",
            "list",
            scenario={"mode": "reliability", "ops": ["m1"]},
        )
        assert plain.cache_key("h") != hardened.cache_key("h")

    def test_scenario_dict_round_trips_through_make(self):
        spec = JobSpec.make(
            "IOPIN",
            "2+/-,2*",
            "fds",
            scenario={"mode": "io", "pins": dict(IOPIN_PINS)},
        )
        again = JobSpec.make(
            "IOPIN", "2+/-,2*", "fds", scenario=spec.scenario_dict()
        )
        assert again == spec


class TestLowering:
    def test_memory_lowering_banks_the_resources(self):
        dfg = get_graph("MEMBANK")
        resources, windows, meta = lower_scenario(
            _norm({"mode": "memory", "banks": 2, "ports": 1}),
            dfg,
            ResourceSet.parse("2+/-,1*,2mem"),
            None,
        )
        assert resources.banked_fu().banking == (2, 1)
        assert windows is None
        assert meta["mem_ops"] == 8

    def test_memory_conflicts_with_prebanked_resources(self):
        with pytest.raises(SchedulingError) as excinfo:
            lower_scenario(
                _norm({"mode": "memory", "banks": 2, "ports": 1}),
                get_graph("MEMBANK"),
                ResourceSet.parse("2+/-,1*,4mem[2x2]"),
                None,
            )
        assert "one or the other" in str(excinfo.value)

    def test_io_pins_become_degenerate_windows(self):
        dfg = get_graph("IOPIN")
        _, windows, meta = lower_scenario(
            _norm({"mode": "io", "pins": dict(IOPIN_PINS)}, "force-directed"),
            dfg,
            ResourceSet.parse("2+/-,2*"),
            None,
        )
        assert windows == {op: (s, s) for op, s in IOPIN_PINS.items()}
        assert meta["pins"] == dict(IOPIN_PINS)

    def test_io_pin_must_lie_inside_existing_window(self):
        dfg = get_graph("IOPIN")
        with pytest.raises(SchedulingError) as excinfo:
            lower_scenario(
                _norm({"mode": "io", "pins": {"in1": 9}}, "force-directed"),
                dfg,
                ResourceSet.parse("2+/-,2*"),
                {"in1": (0, 3)},
            )
        assert "outside" in str(excinfo.value)

    def test_io_pin_merges_with_unrelated_windows(self):
        dfg = get_graph("IOPIN")
        _, windows, _ = lower_scenario(
            _norm({"mode": "io", "pins": {"in1": 0}}, "force-directed"),
            dfg,
            ResourceSet.parse("2+/-,2*"),
            {"out2": (4, 9)},
        )
        assert windows == {"in1": (0, 0), "out2": (4, 9)}

    def test_io_pin_unknown_op_is_structured(self):
        with pytest.raises(SchedulingError):
            lower_scenario(
                _norm({"mode": "io", "pins": {"ghost": 0}}, "force-directed"),
                get_graph("IOPIN"),
                ResourceSet.parse("2+/-,2*"),
                None,
            )


class TestExecution:
    def test_reliability_insertions_land_in_artifact(self):
        spec = JobSpec.make(
            "TMRMARK",
            "2+/-,2*",
            "list",
            scenario={"mode": "reliability", "ops": list(TMRMARK_OPS)},
        )
        result = execute_job(spec, "k", "h", capture_schedule=True)
        assert result.error is None
        inserted = set(result.artifact["inserted"])
        for op in TMRMARK_OPS:
            assert {f"{op}__r1", f"{op}__r2", f"{op}__vote"} <= inserted
        assert result.artifact["meta"]["scenario"]["mode"] == "reliability"
        # num_ops reports the *input* graph, sampled pre-transform.
        assert result.num_ops == get_graph("TMRMARK").num_nodes

    def test_scenario_jobs_skip_the_gap_comparator(self):
        spec = JobSpec.make(
            "TMRMARK",
            "2+/-,2*",
            "list",
            scenario={"mode": "reliability", "ops": ["m1"]},
        )
        result = execute_job(
            spec, "k", "h", compute_gap=True, capture_schedule=True
        )
        assert result.error is None
        assert result.gap is None

    def test_windows_and_budget_combine_on_bnb(self):
        spec = JobSpec.make(
            "HAL",
            "2+/-,2*",
            "bnb-anytime",
            windows={"m1": (2, 2)},
            budget={"nodes": 50_000},
        )
        result = execute_job(spec, "k", "h", capture_schedule=True)
        assert result.error is None
        assert result.artifact["ops"]["m1"]["step"] == 2
        assert result.artifact["meta"]["bnb"]["proved"] is True

    def test_semantic_scenario_failures_are_structured(self):
        # Registry-graph pins resolve in the worker; a dangling pin is
        # a per-job failure, not a batch abort.
        spec = JobSpec.make(
            "HAL",
            "2+/-,2*",
            "fds",
            scenario={"mode": "io", "pins": {"ghost": 0}},
        )
        (result,) = BatchEngine().run([spec])
        assert not result.ok
        assert "ghost" in result.error

    def test_memory_scenario_end_to_end(self):
        spec = JobSpec.make(
            "MEMBANK",
            "2+/-,2*,2mem",
            "list",
            scenario={"mode": "memory", "banks": 2, "ports": 1},
        )
        (result,) = BatchEngine(capture_schedules=True).run([spec])
        assert result.error is None
        meta = result.artifact["meta"]["scenario"]
        assert meta == {
            "mode": "memory",
            "banks": 2,
            "ports": 1,
            "mem_ops": 8,
        }
