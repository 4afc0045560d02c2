"""CLI tests: exit codes, usage messages, bench/batch plumbing."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import _COMMANDS, main


def test_no_args_prints_usage(capsys):
    assert main([]) == 0
    assert "batch" in capsys.readouterr().out


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    err = capsys.readouterr().err
    assert "unknown command" in err
    assert "bench" in err  # usage is printed, not a traceback


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "HAL", "2+bogus"],
        ["schedule", "NOSUCH"],
        ["schedule", "HAL", "2+/-,2*", "meta99"],
        ["batch", "--resources", "garbage"],
        ["batch", "-a", "simulated-annealing"],
        ["batch", "--random", "0x3"],
        ["batch", "--random", "5x0"],
        ["bench", "--check", "/nonexistent/baseline.json"],
        ["batch", "HAL", "--cache-entries", "5"],
        ["bench", "--cache-entries", "5"],
        ["batch", "HAL", "--workers", "0"],
        ["bench", "--workers", "0"],
    ],
)
def test_bad_input_exits_2_without_traceback(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_schedule_happy_path(capsys):
    assert main(["schedule", "HAL", "2+/-,2*", "meta2"]) == 0
    assert "8 control steps" in capsys.readouterr().out


def test_bench_json_check_cycle(tmp_path, capsys):
    baseline = tmp_path / "BENCH_baseline.json"
    assert main(["bench", "--json", str(baseline)]) == 0
    capsys.readouterr()

    # Re-checking against the fresh baseline passes.
    assert main(["bench", "--check", str(baseline)]) == 0
    assert "ok" in capsys.readouterr().out

    # A regressed baseline (lengths lowered) makes the check fail.
    data = json.loads(baseline.read_text())
    for entry in data["results"]:
        entry["length"] -= 1
    rigged = tmp_path / "rigged.json"
    rigged.write_text(json.dumps(data))
    assert main(["bench", "--check", str(rigged)]) == 1
    assert "REGRESSION" in capsys.readouterr().err


def test_batch_json_output(tmp_path, capsys):
    out = tmp_path / "batch.json"
    code = main(
        [
            "batch", "HAL", "FIR",
            "-a", "list", "-a", "meta2",
            "--json", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["format"] == "repro-batch-v1"
    assert len(data["results"]) == 4
    table = capsys.readouterr().out
    assert "HAL" in table and "FIR" in table


def test_batch_random_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["batch", "--random", "25x2", "--seed", "9", "-a", "meta1"]
    assert main(argv + ["--json", str(first)]) == 0
    assert main(argv + ["--json", str(second)]) == 0
    lengths = [
        [(r["graph"], r["length"]) for r in json.loads(p.read_text())["results"]]
        for p in (first, second)
    ]
    assert lengths[0] == lengths[1]


def test_batch_artifacts_flag(tmp_path, capsys):
    out = tmp_path / "batch.json"
    cache = tmp_path / "cache"
    argv = [
        "batch", "HAL",
        "-a", "meta2",
        "--artifacts", "--cache", str(cache), "--cache-entries", "8",
        "--json", str(out),
    ]
    assert main(argv) == 0
    (entry,) = json.loads(out.read_text())["results"]
    assert entry["artifact"]["format"] == "repro-schedule-v1"
    assert len(entry["artifact"]["ops"]) == entry["num_ops"]
    stdout = capsys.readouterr().out
    # Bounded runs have the index materialized -> store summary line.
    assert "store:" in stdout

    # Second invocation round-trips the artifact from the disk store.
    rerun = tmp_path / "rerun.json"
    assert main(argv[:-1] + [str(rerun)]) == 0
    (reloaded,) = json.loads(rerun.read_text())["results"]
    assert reloaded["cached"] is True
    assert reloaded["artifact"] == entry["artifact"]


def test_batch_cache_entries_bound(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = [
        "batch", "--random", "10x8", "-a", "list",
        "--cache", str(cache), "--cache-entries", "5",
    ]
    assert main(argv) == 0
    assert len(list(cache.rglob("*.json"))) == 5
    assert "evicted" in capsys.readouterr().out


def test_bench_artifacts_flag(tmp_path):
    out = tmp_path / "bench.json"
    assert main(["bench", "--artifacts", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert all(r["artifact"] is not None for r in data["results"])


def test_batch_unbounded_cache_skips_store_walk(tmp_path, capsys):
    argv = ["batch", "HAL", "-a", "list", "--cache", str(tmp_path / "c")]
    assert main(argv) == 0
    # No capacity bound -> the O(store) index walk is not forced just
    # to print a summary line.
    assert "store:" not in capsys.readouterr().out


def test_cli_import_loads_no_serving_stack():
    """``repro batch`` starts through ``repro.engine.cli``; its launch
    time must not pay for the event loop, the serving and dispatch
    layers, or the cluster store, which only ``serve``/``dispatch``
    import when they run.  A fresh interpreter, so no other test's
    imports count."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    probe = "import sys, repro.engine.cli; print(*sys.modules)"
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    heavy = ("asyncio", "repro.serve", "repro.store", "repro.dispatch")
    assert [
        name for name in loaded
        if any(name == top or name.startswith(top + ".") for top in heavy)
    ] == []


class TestUnwritableCacheDir:
    """--cache/--cache-dir pointing at an unwritable path fails fast,
    with a clear message and exit code 2 — before any job computes."""

    def test_cache_at_existing_file_exits_2(self, tmp_path, capsys):
        plain_file = tmp_path / "not-a-dir"
        plain_file.write_text("occupied")
        assert main(["batch", "HAL", "--cache", str(plain_file)]) == 2
        captured = capsys.readouterr()
        assert "error: cannot create cache directory" in captured.err
        assert "batch:" not in captured.out  # nothing was computed

    def test_unwritable_cache_dir_exits_2_before_compute(
        self, tmp_path, monkeypatch, capsys
    ):
        # Simulate EACCES from the writability probe (chmod is not
        # reliable under root, where the suite often runs).
        import repro.engine.cli as cli_mod

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli_mod.tempfile, "mkstemp", denied)
        target = tmp_path / "ro-cache"
        assert main(["batch", "HAL", "--cache", str(target)]) == 2
        captured = capsys.readouterr()
        assert "is not writable" in captured.err
        assert "Traceback" not in captured.err
        assert "batch:" not in captured.out

    def test_bench_shares_the_probe(self, tmp_path, monkeypatch, capsys):
        import repro.engine.cli as cli_mod

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli_mod.tempfile, "mkstemp", denied)
        assert main(["bench", "--cache", str(tmp_path / "c")]) == 2
        captured = capsys.readouterr()
        assert "is not writable" in captured.err
        assert "bench suite" not in captured.out

    def test_probe_leaves_no_droppings(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["batch", "HAL", "--cache", str(cache_dir)]) == 0
        capsys.readouterr()
        leftovers = list(cache_dir.glob(".writable-*"))
        assert leftovers == []


class TestServeArgValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--cache-entries", "5"],
            ["serve", "--max-queue", "0"],
            ["serve", "--max-batch", "0"],
        ],
    )
    def test_bad_serve_args_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_unwritable_cache_dir_exits_2(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.engine.cli as cli_mod

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli_mod.tempfile, "mkstemp", denied)
        argv = ["serve", "--cache-dir", str(tmp_path / "c"), "--port", "0"]
        assert main(argv) == 2
        assert "is not writable" in capsys.readouterr().err


#: One out-of-range value per bounded numeric flag.  ``{tmp}`` is a
#: fresh directory, for flags that only apply with a cache.
OUT_OF_RANGE = [
    ["serve", "--port", "70000"],
    ["serve", "--port", "-1"],
    ["serve", "--workers", "0"],
    ["serve", "--max-queue", "0"],
    ["serve", "--max-batch", "0"],
    ["serve", "--batch-window-ms", "inf"],
    ["serve", "--batch-window-ms", "nan"],
    ["serve", "--batch-window-ms", "-1"],
    ["serve", "--drain-timeout", "0"],
    ["serve", "--drain-timeout", "nan"],
    ["serve", "--peer-timeout", "0"],
    ["serve", "--peer-timeout", "nan"],
    ["serve", "--publish-fanout", "-1"],
    ["serve", "--cache-dir", "{tmp}", "--cache-entries", "0"],
    ["dispatch", "--replica", "127.0.0.1:9", "--port", "70000"],
    ["dispatch", "--replica", "127.0.0.1:9", "--health-interval", "0"],
    ["dispatch", "--replica", "127.0.0.1:9", "--health-interval", "nan"],
    ["dispatch", "--replica", "127.0.0.1:9", "--probe-timeout", "0"],
    ["dispatch", "--replica", "127.0.0.1:9", "--probe-timeout", "nan"],
    ["dispatch", "--replica", "127.0.0.1:9", "--request-timeout", "0"],
    ["dispatch", "--replica", "127.0.0.1:9", "--request-timeout", "nan"],
    ["dispatch", "--replica", "127.0.0.1:9", "--drain-timeout", "0"],
    ["dispatch", "--replica", "127.0.0.1:9", "--drain-timeout", "nan"],
    ["dispatch", "--replica", "127.0.0.1:9", "--retry-attempts", "-1"],
    ["dispatch", "--replica", "127.0.0.1:9", "--retry-base-ms", "0"],
    ["dispatch", "--replica", "127.0.0.1:9", "--retry-base-ms", "nan"],
    ["dispatch", "--replica", "127.0.0.1:9", "--retry-max-ms", "0"],
    ["dispatch", "--replica", "127.0.0.1:9", "--retry-max-ms", "nan"],
    ["dispatch", "--replica", "127.0.0.1:9", "--deadline-ms", "0"],
    ["dispatch", "--replica", "127.0.0.1:9", "--deadline-ms", "nan"],
    ["dispatch", "--replica", "127.0.0.1:9", "--breaker-threshold", "0"],
    ["dispatch", "--replica", "127.0.0.1:9", "--breaker-reset", "0"],
    ["dispatch", "--replica", "127.0.0.1:9", "--breaker-reset", "nan"],
    ["hier", "--random", "0"],
    ["hier", "--random", "40", "--workers", "0"],
    ["hier", "--random", "40", "--target", "127.0.0.1:9", "--workers", "0"],
    ["hier", "--random", "40", "--retry-attempts", "-1"],
    ["hier", "--random", "40", "--max-ops", "0"],
    ["hier", "--random", "40", "--parts", "0"],
    ["hier", "--random", "40", "--rounds", "0"],
    ["hier", "--random", "40", "--slack", "-1"],
    ["improve", "HAL", "--nodes", "0"],
    ["improve", "HAL", "--deadline", "0"],
    ["improve", "HAL", "--deadline", "nan"],
    ["improve", "HAL", "--slice-nodes", "0"],
]


@pytest.fixture
def side_effects(monkeypatch):
    """Record every bind and every job instead of running it."""
    from repro.engine.batch import BatchEngine
    from repro.hier import orchestrator
    from repro.improve.improver import Improver
    from repro.serve.http import HttpServerCore

    calls = []

    def record(name):
        def stub(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran for a rejected argv")

        return stub

    monkeypatch.setattr(HttpServerCore, "listen", record("listen"))
    monkeypatch.setattr(BatchEngine, "submit", record("submit"))
    monkeypatch.setattr(orchestrator, "execute_job", record("execute_job"))
    monkeypatch.setattr(
        orchestrator.ServeBackend, "run", record("ServeBackend.run")
    )
    monkeypatch.setattr(Improver, "step", record("Improver.step"))
    return calls


class TestOutOfRangeFlags:
    """Every bounded flag is checked by the constructor it feeds; the
    CLI turns that check into exit 2 before any socket or job."""

    @pytest.mark.parametrize(
        "argv", OUT_OF_RANGE, ids=lambda argv: " ".join(argv)
    )
    def test_exits_2_before_any_work(
        self, argv, tmp_path, side_effects, capsys
    ):
        argv = [arg.format(tmp=tmp_path / "c") for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert side_effects == []


def library_defaults():
    """``{(command, dest): library default}`` for every flag whose
    value feeds a library parameter."""
    from repro.dispatch.router import DispatchRouter
    from repro.engine.batch import BatchEngine
    from repro.engine.bench import run_suite
    from repro.engine.sweeps import random_dag_sweep
    from repro.graphs.registry import graph_names
    from repro.hier.orchestrator import HierOrchestrator
    from repro.improve.improver import Improver
    from repro.resilience import RetryPolicy
    from repro.scheduling.resources import DEFAULT_RESOURCES
    from repro.serve.server import ScheduleServer

    def params(target):
        return {
            name: param.default
            for name, param in inspect.signature(target).parameters.items()
        }

    engine = params(BatchEngine)
    suite = params(run_suite)
    server = params(ScheduleServer)
    router = params(DispatchRouter)
    hier = params(HierOrchestrator)
    router_retry = DispatchRouter(["127.0.0.1:9"]).retry
    return {
        ("batch", "seed"): params(random_dag_sweep)["base_seed"],
        ("batch", "paper_only"): params(graph_names)["paper_only"],
        ("batch", "gaps"): engine["compute_gaps"],
        ("batch", "workers"): engine["workers"],
        ("batch", "cache"): engine["cache_dir"],
        ("batch", "cache_entries"): engine["max_cache_entries"],
        ("batch", "artifacts"): engine["capture_schedules"],
        ("bench", "workers"): suite["workers"],
        ("bench", "cache"): suite["cache_dir"],
        ("bench", "cache_entries"): suite["max_cache_entries"],
        ("bench", "artifacts"): suite["capture_schedules"],
        ("schedule", "resources"): DEFAULT_RESOURCES,
        ("serve", "host"): server["host"],
        ("serve", "workers"): server["workers"],
        ("serve", "cache_dir"): server["cache_dir"],
        ("serve", "cache_entries"): server["max_cache_entries"],
        ("serve", "max_queue"): server["max_queue"],
        ("serve", "max_batch"): server["max_batch"],
        ("serve", "batch_window_ms"): server["batch_window_ms"],
        ("serve", "drain_timeout"): server["drain_timeout_s"],
        ("serve", "peer_timeout"): server["peer_timeout_s"],
        ("serve", "publish"): server["publish"],
        ("serve", "publish_fanout"): server["publish_fanout"],
        ("dispatch", "host"): router["host"],
        ("dispatch", "health_interval"): router["health_interval_s"],
        ("dispatch", "probe_timeout"): router["probe_timeout_s"],
        ("dispatch", "request_timeout"): router["request_timeout_s"],
        ("dispatch", "drain_timeout"): router["drain_timeout_s"],
        ("dispatch", "retry_attempts"): router_retry.max_attempts,
        ("dispatch", "retry_base_ms"): router_retry.base_s * 1000.0,
        ("dispatch", "retry_max_ms"): router_retry.max_backoff_s * 1000.0,
        ("dispatch", "deadline_ms"): router["deadline_ms"],
        ("dispatch", "breaker_threshold"): router["breaker_threshold"],
        ("dispatch", "breaker_reset"): router["breaker_reset_s"],
        ("hier", "algorithm"): hier["algorithm"],
        ("hier", "max_ops"): hier["max_ops"],
        ("hier", "parts"): hier["num_parts"],
        ("hier", "rounds"): hier["max_rounds"],
        ("hier", "slack"): hier["slack"],
        ("hier", "workers"): engine["workers"],
        ("hier", "retry_attempts"): params(RetryPolicy)["max_attempts"],
        ("improve", "resources"): DEFAULT_RESOURCES,
        ("improve", "nodes"): params(Improver.run)["nodes"],
        ("improve", "deadline"): params(Improver.run)["deadline_ms"],
        ("improve", "slice_nodes"): params(Improver)["slice_nodes"],
        ("improve", "cache_dir"): engine["cache_dir"],
    }


#: Arguments with no library parameter to agree with.  ``--port`` is
#: the one deliberate disagreement: the CLI listens on 8080, the
#: library constructors default to 0 (any free port).  ``schedule``'s
#: ``meta`` defaults to ``meta2``, the short alias of the library's
#: ``meta2-topological``, because the command echoes the name.
CLI_ONLY = {
    ("batch", "graphs"), ("batch", "resources"), ("batch", "algorithms"),
    ("batch", "random"), ("batch", "json"),
    ("bench", "check"), ("bench", "json"),
    ("schedule", "graph"), ("schedule", "meta"),
    ("serve", "port"), ("serve", "peer"),
    ("dispatch", "port"), ("dispatch", "replica"),
    ("hier", "graph"), ("hier", "random"), ("hier", "seed"),
    ("hier", "resources"), ("hier", "target"), ("hier", "json"),
    ("improve", "graph"), ("improve", "quiet"), ("improve", "json"),
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_parser_defaults_are_the_library_defaults(command, parser_of):
    expected = {
        dest: default
        for (owner, dest), default in library_defaults().items()
        if owner == command
    }
    parser = parser_of(command)
    dests = {
        action.dest for action in parser._actions if action.dest != "help"
    }
    cli_only = {dest for owner, dest in CLI_ONLY if owner == command}
    assert dests == set(expected) | cli_only
    defaults = {dest: parser.get_default(dest) for dest in expected}
    assert defaults == expected


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_prints_usage_and_runs_nothing(command, side_effects, capsys):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: repro {command} ")
    assert captured.err == ""
    assert side_effects == []


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_stray_flag_exits_2_and_runs_nothing(command, side_effects, capsys):
    with pytest.raises(SystemExit) as done:
        main([command, "--bogus"])
    assert done.value.code == 2
    captured = capsys.readouterr()
    assert f"repro {command}: error: " in captured.err
    assert captured.out == ""
    assert side_effects == []


def test_main_import_loads_no_command_module():
    """Each command's module is imported when that command runs, never
    when ``repro`` starts.  A fresh interpreter, so no other test's
    imports count."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    probe = "import sys, repro.__main__; print(*sys.modules)"
    loaded = set(
        subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.split()
    )
    modules = {target.split(":")[0] for target, _ in _COMMANDS.values()}
    assert modules & loaded == set()
