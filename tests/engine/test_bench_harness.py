"""Tests for the unified bench harness and its regression check."""

import dataclasses
import json

import pytest

from repro.engine import bench
from repro.engine.cli import write_json
from repro.errors import ReproError


@pytest.fixture(scope="module")
def small_report():
    return bench.run_suite(
        benches=("HAL", "FIR"),
        algorithms=("list(ready)", "threaded(meta4)"),
    )


def test_run_suite_shape(small_report):
    assert len(small_report.results) == 4
    assert {r.graph for r in small_report.results} == {"HAL", "FIR"}
    assert all(r.resources == bench.SUITE_CONSTRAINT
               for r in small_report.results)
    assert small_report.wall_time_s > 0


def test_results_json_round_trip(small_report, tmp_path):
    path = tmp_path / "BENCH_results.json"
    write_json(str(path), small_report.to_dict())
    loaded = bench.load_report(path)
    assert loaded.results == small_report.results
    assert loaded.benches == small_report.benches
    assert loaded.algorithms == small_report.algorithms
    assert loaded.constraint == small_report.constraint
    # And the file is plain diffable JSON with the declared format tag.
    assert json.loads(path.read_text())["format"] == "repro-bench-v1"


def test_load_report_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ReproError):
        bench.load_report(path)
    with pytest.raises(ReproError):
        bench.load_report(tmp_path / "missing.json")


def test_check_passes_against_itself(small_report):
    assert bench.check_report(small_report, small_report) == []


def test_check_detects_length_regression(small_report):
    worse = dataclasses.replace(
        small_report,
        results=[
            dataclasses.replace(small_report.results[0], length=99),
            *small_report.results[1:],
        ],
    )
    problems = bench.check_report(worse, small_report)
    assert len(problems) == 1
    assert "length regressed" in problems[0]
    # Improvements are not regressions.
    assert bench.check_report(small_report, worse) == []


def test_check_detects_missing_cell(small_report):
    partial = dataclasses.replace(
        small_report, results=small_report.results[1:]
    )
    problems = bench.check_report(partial, small_report)
    assert len(problems) == 1
    assert "missing" in problems[0]


def test_check_detects_single_cell_runtime_blowup(small_report):
    # One cell blows up 50x + 1s while the rest hold: the median speed
    # ratio stays ~1, so the outlier trips.
    slow = dataclasses.replace(
        small_report,
        results=[
            dataclasses.replace(
                small_report.results[0],
                runtime_s=small_report.results[0].runtime_s * 50 + 1.0,
            ),
            *small_report.results[1:],
        ],
    )
    problems = bench.check_report(slow, small_report)
    assert len(problems) == 1
    assert "runtime blew up" in problems[0]


def test_check_normalizes_out_machine_speed(small_report):
    # A uniformly 5x-slower machine (plus ms-scale noise) is hardware,
    # not a regression.
    slower_box = dataclasses.replace(
        small_report,
        results=[
            dataclasses.replace(r, runtime_s=r.runtime_s * 5 + 0.01)
            for r in small_report.results
        ],
    )
    assert bench.check_report(slower_box, small_report) == []
    # And the baseline from the slow box also passes on the fast box.
    assert bench.check_report(small_report, slower_box) == []


def test_suite_jobs_cover_acceptance_grid():
    jobs = bench.suite_jobs()
    combos = {(j.graph.name, j.algorithm) for j in jobs}
    assert len(jobs) == 20
    assert combos == {
        (g, a)
        for g in ("HAL", "AR", "EF", "FIR", "DCT8")
        for a in (
            "list(ready)",
            "list(critical-path)",
            "force-directed",
            "threaded(meta4)",
        )
    }


def test_run_suite_rejects_engine_with_engine_kwargs():
    from repro.engine.batch import BatchEngine

    with pytest.raises(ValueError):
        bench.run_suite(engine=BatchEngine(), capture_schedules=True)
    with pytest.raises(ValueError):
        bench.run_suite(engine=BatchEngine(), max_cache_entries=5)
    with pytest.raises(ValueError):
        bench.run_suite(engine=BatchEngine(), workers=4)
    with pytest.raises(ValueError):
        bench.run_suite(engine=BatchEngine(), cache_dir="/tmp/x")
