"""CLI tests: exit codes, usage messages, bench/batch plumbing."""

import json

import pytest

from repro.__main__ import main


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
        ["bench", "--check", "/nonexistent/baseline.json"],
        ["batch", "HAL", "--cache-entries", "5"],
        ["bench", "--cache-entries", "5"],
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
