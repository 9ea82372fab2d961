"""Tests for the bench-trajectory drift checker (repro bench check)."""

import json

from repro.analysis.benchcheck import (
    check_directories,
    check_trajectories,
    load_trajectories,
)
from repro.cli import main


def _note(experiment="E1_rounds", **fields):
    base = {
        "experiment": experiment,
        "config": {"module": "bench_x", "test": "test_y"},
        "n": 1024,
        "wall_clock_s": 10.0,
        "gate": 1.05,
        "peak_rss_mib": 50.0,
    }
    base.update(fields)
    return base


def _write(directory, *notes):
    for note in notes:
        path = directory / f"BENCH_{note['experiment']}.json"
        path.write_text(json.dumps(note, indent=2, sort_keys=True))


class TestCheckTrajectories:
    def test_identical_sets_pass(self):
        base = {"E1": _note("E1")}
        result = check_trajectories(base, {"E1": _note("E1")})
        assert result.ok and result.compared == ["E1"]

    def test_gate_drift_fails(self):
        result = check_trajectories(
            {"E1": _note("E1", gate=1.05)}, {"E1": _note("E1", gate=1.5)}
        )
        assert not result.ok
        assert any("gate drift" in p for p in result.problems)

    def test_nested_gate_key_fails_too(self):
        result = check_trajectories(
            {"E1": _note("E1", dilation_gate=2.0)},
            {"E1": _note("E1", dilation_gate=3.0)},
        )
        assert any("dilation_gate" in p for p in result.problems)

    def test_wall_clock_regression_fails(self):
        result = check_trajectories(
            {"E1": _note("E1", wall_clock_s=10.0)},
            {"E1": _note("E1", wall_clock_s=20.0)},
            max_regression=0.5,
        )
        assert any("wall_clock_s" in p for p in result.problems)

    def test_wall_clock_within_budget_passes(self):
        result = check_trajectories(
            {"E1": _note("E1", wall_clock_s=10.0)},
            {"E1": _note("E1", wall_clock_s=14.0)},
            max_regression=0.5,
        )
        assert result.ok

    def test_resized_run_skips_wall_clock(self):
        # CI runs benches at reduced n: slower-per-unit wall clock on a
        # different size must not fail, only note.
        result = check_trajectories(
            {"E1": _note("E1", n=65536, wall_clock_s=10.0)},
            {"E1": _note("E1", n=1024, wall_clock_s=40.0)},
        )
        assert result.ok
        assert any("resized" in n for n in result.notes)

    def test_metric_drift_is_a_note(self):
        result = check_trajectories(
            {"E1": _note("E1", parity_ratio=0.8)},
            {"E1": _note("E1", parity_ratio=0.9)},
        )
        assert result.ok
        assert any("parity_ratio" in n for n in result.notes)

    def test_one_sided_experiments_are_notes(self):
        result = check_trajectories({"E1": _note("E1")}, {"E2": _note("E2")})
        assert result.ok and result.compared == []
        assert len(result.notes) == 2


class TestDirectories:
    def test_load_and_check(self, tmp_path):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir(), fresh_dir.mkdir()
        _write(base_dir, _note("E1"), _note("E2", gate=2.0))
        _write(fresh_dir, _note("E1"), _note("E2", gate=2.5))
        loaded = load_trajectories(str(base_dir))
        assert set(loaded) == {"E1", "E2"}
        result = check_directories(str(base_dir), str(fresh_dir))
        assert not result.ok and len(result.compared) == 2

    def test_committed_baselines_self_check(self):
        """The repo's own BENCH_*.json files diffed against themselves
        must pass — the CI step's degenerate case."""
        result = check_directories(".", ".")
        assert result.ok and result.compared


class TestCli:
    def test_bench_check_pass(self, tmp_path, capsys):
        _write(tmp_path, _note("E1"))
        assert main(["bench", "check", str(tmp_path), "--fresh", str(tmp_path)]) == 0
        assert "0 problem(s)" in capsys.readouterr().out

    def test_missing_or_empty_directory_is_an_error(self, tmp_path, capsys):
        # A mistyped baseline or --fresh path must not compare nothing
        # and pass.
        _write(tmp_path, _note("E1"))
        empty = tmp_path / "empty"
        empty.mkdir()
        for bad, state in ((tmp_path / "missing", "does not exist"),
                           (empty, "holds no BENCH_*.json")):
            for args in ([str(bad), "--fresh", str(tmp_path)],
                         [str(tmp_path), "--fresh", str(bad)]):
                assert main(["bench", "check", *args]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: bench directory '{bad}' {state}\n"

    def test_bench_check_fails_on_gate_drift(self, tmp_path, capsys):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir(), fresh_dir.mkdir()
        _write(base_dir, _note("E1", gate=1.05))
        _write(fresh_dir, _note("E1", gate=9.9))
        assert main([
            "bench", "check", str(base_dir), "--fresh", str(fresh_dir),
        ]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_max_regression_flag(self, tmp_path, capsys):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir(), fresh_dir.mkdir()
        _write(base_dir, _note("E1", wall_clock_s=10.0))
        _write(fresh_dir, _note("E1", wall_clock_s=13.0))
        assert main([
            "bench", "check", str(base_dir), "--fresh", str(fresh_dir),
            "--max-regression", "0.1",
        ]) == 1
        capsys.readouterr()
        assert main([
            "bench", "check", str(base_dir), "--fresh", str(fresh_dir),
            "--max-regression", "0.5",
        ]) == 0
