"""Tests for the anytime Russian-doll branch-and-bound solver."""

import pytest
from hypothesis import example, given, settings, strategies as st

from exact_reference import exact_schedule
from repro.errors import SchedulingError
from repro.graphs import fir, get_graph, hal, paper_fig1
from repro.graphs.random_dags import random_layered_dag
from repro.scheduling import (
    AnytimeBnB,
    ResourceSet,
    bnb_anytime_schedule,
    force_directed_schedule,
    validate_schedule,
)
from repro.scheduling.bnb import CHECKPOINT_FORMAT


def run_to_completion(solver, slice_nodes=10_000, max_slices=10_000):
    events = []
    for _ in range(max_slices):
        events.extend(solver.advance(slice_nodes))
        if solver.done:
            return events
    raise AssertionError("solver did not finish within the slice cap")


class TestKnownOptima:
    """The anytime solver proves the same optima the exact module does."""

    @pytest.mark.parametrize(
        "graph_name,expected",
        [("FIG1", 5), ("HAL", 7), ("FIR", 11), ("IIR3", 20)],
    )
    def test_paper_benchmarks_prove_optimum(self, graph_name, expected, two_two):
        solver = AnytimeBnB(get_graph(graph_name), two_two)
        run_to_completion(solver)
        assert solver.proved
        assert solver.best_length == expected
        assert solver.lower_bound == expected

    def test_best_schedule_validates(self, two_two):
        solver = AnytimeBnB(hal(), two_two)
        run_to_completion(solver)
        schedule = solver.best_schedule()
        assert validate_schedule(schedule, two_two, check_binding=False) == []
        assert schedule.algorithm == "bnb-anytime"
        meta = schedule.meta["bnb"]
        assert meta["proved"] is True
        assert meta["lower_bound"] == 7
        assert "checkpoint" not in meta, "a finished run carries no checkpoint"


class TestAnytimeContract:
    def test_incumbents_monotone_bounds_monotone(self, two_two):
        solver = AnytimeBnB(fir(), two_two)
        events = run_to_completion(solver, slice_nodes=500)
        lengths = [e["length"] for e in events if e["type"] == "incumbent"]
        assert lengths == sorted(lengths, reverse=True)
        bounds = [e["bound"] for e in events]
        assert bounds == sorted(bounds)
        assert events[-1]["type"] == "optimal"

    def test_infeasible_seed_is_discarded(self, two_two):
        """FDS is time-constrained: its AR schedule overbooks the units,
        and adopting it as an incumbent would poison every proof."""
        seed = dict(
            force_directed_schedule(get_graph("AR"), two_two).start_times
        )
        solver = AnytimeBnB(get_graph("AR"), two_two, seed_times=seed)
        problems = validate_schedule(
            solver.best_schedule(), two_two,
            check_binding=False, raise_on_error=False,
        )
        assert problems == []
        assert solver.best_length > 9

    def test_feasible_seed_caps_the_incumbent(self, two_two):
        times = dict(force_directed_schedule(hal(), two_two).start_times)
        solver = AnytimeBnB(hal(), two_two, seed_times=times)
        assert solver.seed_length <= 9

    def test_status_event_shape(self, two_two):
        solver = AnytimeBnB(hal(), two_two)
        event = solver.status_event("incumbent")
        assert set(event) == {
            "type", "length", "bound", "nodes", "proved", "phase",
        }
        assert event["type"] == "incumbent"


class TestCheckpointing:
    def test_checkpoint_resume_reaches_same_answer(self, two_two):
        """Interrupting and resuming must land on the identical proved
        optimum — node counts may differ (the memo dies with the
        process), the answer may not."""
        straight = AnytimeBnB(fir(), two_two)
        run_to_completion(straight)

        interrupted = AnytimeBnB(fir(), two_two)
        interrupted.advance(2_000)
        assert not interrupted.done
        snapshot = interrupted.checkpoint()
        assert snapshot["format"] == CHECKPOINT_FORMAT

        resumed = AnytimeBnB(fir(), two_two, checkpoint=snapshot)
        assert resumed.nodes_total == snapshot["nodes_total"]
        run_to_completion(resumed)
        assert resumed.proved and straight.proved
        assert resumed.best_length == straight.best_length == 11

    def test_checkpoint_is_json_safe(self, two_two):
        import json

        solver = AnytimeBnB(fir(), two_two)
        solver.advance(2_000)
        round_tripped = json.loads(json.dumps(solver.checkpoint()))
        resumed = AnytimeBnB(fir(), two_two, checkpoint=round_tripped)
        run_to_completion(resumed)
        assert resumed.proved and resumed.best_length == 11

    def test_bad_checkpoint_rejected(self, two_two):
        with pytest.raises(SchedulingError):
            AnytimeBnB(hal(), two_two, checkpoint={"format": "nope"})


class TestBudgetedEntryPoint:
    def test_node_budget_interrupts_with_checkpoint(self, two_two):
        schedule = bnb_anytime_schedule(
            fir(), two_two, budget={"nodes": 1_000}, slice_nodes=250
        )
        meta = schedule.meta["bnb"]
        assert not meta["proved"]
        assert "checkpoint" in meta
        assert validate_schedule(
            schedule, two_two, check_binding=False
        ) == []
        finished = bnb_anytime_schedule(
            fir(), two_two, checkpoint=meta["checkpoint"]
        )
        assert finished.meta["bnb"]["proved"]
        assert finished.length == 11

    def test_events_stream_through_callback(self, two_two):
        seen = []
        bnb_anytime_schedule(hal(), two_two, on_event=seen.append)
        assert seen[-1]["type"] == "optimal"
        assert seen[-1]["length"] == 7


class TestCrossCheck:
    """The hypothesis gate: on every random small DAG the anytime
    solver and the reference search must agree on the optimum.  The
    reference runs uncapped, so its length is a finished search's."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(0, 5_000),
        st.sampled_from(["1+/-,1*", "2+/-,1*", "2+/-,2*"]),
    )
    # Draws that once failed this gate: the reference, cut off at its
    # 200,000-node cap, answered 9 where the optimum is 8.
    @example(18, 2465, "2+/-,2*")
    @example(20, 1812, "2+/-,2*")
    def test_bnb_matches_exact_on_random_dags(self, size, seed, notation):
        g = random_layered_dag(size, seed=seed)
        rs = ResourceSet.parse(notation)
        exact = exact_schedule(g, rs, node_limit=None)
        assert exact.meta["completed"], exact.meta
        solver = AnytimeBnB(g, rs)
        run_to_completion(solver)
        assert solver.proved
        assert solver.best_length == exact.length
        assert validate_schedule(
            solver.best_schedule(), rs, check_binding=False
        ) == []
