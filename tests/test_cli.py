"""Tests for the CLI entry point."""

import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.n == 4096 and args.algorithm == "cluster2"


class TestVersionAndModuleEntry:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "repro" in out
        # Version string matches the package metadata / source fallback.
        import repro

        assert repro.__version__ in out

    def test_python_dash_m_repro(self):
        """``python -m repro run ...`` works via repro/__main__.py."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--n", "256",
             "--algorithm", "push", "--seed", "1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "push(n=256)" in proc.stdout

    def test_python_dash_m_repro_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.startswith("repro ")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cluster2" in out and "membership-update" in out
        assert "push-sum" in out  # tasks are part of the catalogue

    def test_run(self, capsys):
        rc = main(["run", "--n", "512", "--algorithm", "push", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "push(n=512)" in out and "TOTAL" in out

    def test_sweep(self, capsys):
        rc = main(
            ["sweep", "--algorithms", "push", "--ns", "256", "512", "--seeds", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "push" in out and "256" in out

    def test_scenario(self, capsys):
        rc = main(["scenario", "low-latency-smalljob"])
        assert rc == 0
        assert "cluster1" in capsys.readouterr().out

    def test_lower_bound(self, capsys):
        rc = main(["lower-bound", "--ns", "1024", "--seeds", "2"])
        assert rc == 0
        assert "Theorem 3" in capsys.readouterr().out


class TestReplicationFlags:
    def test_run_reps_streams_and_aggregates(self, capsys):
        rc = main(
            ["run", "--n", "512", "--algorithm", "push-pull",
             "--reps", "5", "--stream"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rep 5/5" in out  # streamed per-replication lines
        assert "vector" in out and "spread q50/q90" in out  # summary table
        assert "5 replications" in out

    def test_run_reps_engine_choice(self, capsys):
        rc = main(
            ["run", "--n", "256", "--algorithm", "cluster2",
             "--reps", "3", "--engine", "reset"]
        )
        assert rc == 0
        assert "reset" in capsys.readouterr().out

    @pytest.mark.parametrize("reps", ["1", "4"])
    def test_run_rejects_nonpositive_message_bits(self, capsys, reps):
        rc = main(
            ["run", "--n", "64", "--algorithm", "push-pull",
             "--reps", reps, "--message-bits", "-5"]
        )
        assert rc == 2
        assert "rumor_bits must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_run_rejects_nonpositive_reps(self, capsys, reps):
        # --reps below 1 used to run one broadcast and exit 0.
        rc = main(["run", "--n", "64", "--algorithm", "push-pull", "--reps", reps])
        assert rc == 2
        out = capsys.readouterr()
        assert out.err == f"error: reps must be positive, got {reps}\n"
        assert out.out == ""

    def test_suite_rejects_nonpositive_reps(self, capsys):
        # --reps 0 used to run the single-seed suite and exit 0.
        assert main(["suite", "low-latency-smalljob", "--reps", "0"]) == 2
        assert "error: " in capsys.readouterr().err

    def test_run_reps_with_schedule_falls_back(self, capsys):
        rc = main(
            ["run", "--n", "256", "--algorithm", "push-pull",
             "--reps", "3", "--loss", "0.05"]
        )
        assert rc == 0
        assert "reset" in capsys.readouterr().out

    def test_suite_reps(self, capsys, tmp_path):
        path = tmp_path / "summaries.json"
        rc = main(
            ["suite", "low-latency-smalljob", "--reps", "3",
             "--json", str(path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "replicated scenario suite" in out
        import json

        payload = json.loads(path.read_text())
        assert payload[0]["scenario"] == "low-latency-smalljob"
        assert payload[0]["summary"]["reps"] == 3


class TestSchedulerFlags:
    def test_run_delay_implies_event_tier(self, capsys):
        rc = main(
            ["run", "--n", "256", "--algorithm", "push-pull",
             "--delay", "straggler:fraction=0.05,factor=10", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheduler: event(straggler" in out
        assert "simulated completion time" in out

    def test_run_scheduler_event_default_delay(self, capsys):
        rc = main(
            ["run", "--n", "256", "--algorithm", "push-pull",
             "--scheduler", "event", "--seed", "1"]
        )
        assert rc == 0
        assert "scheduler: event(constant(1))" in capsys.readouterr().out

    def test_round_scheduler_rejects_delay(self, capsys):
        rc = main(
            ["run", "--n", "256", "--scheduler", "round", "--delay", "constant:2"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_delay_spec_is_config_error(self, capsys):
        rc = main(["run", "--n", "256", "--delay", "warp:9"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_run_reps_event_tier(self, capsys):
        rc = main(
            ["run", "--n", "256", "--algorithm", "push-pull",
             "--reps", "3", "--scheduler", "event"]
        )
        assert rc == 0
        # The event tier rides the vector engine through the batched
        # clock overlay: auto no longer falls back to reset.
        assert "vector" in capsys.readouterr().out

    def test_sweep_event_tier(self, capsys):
        rc = main(
            ["sweep", "--algorithms", "push-pull", "--ns", "256",
             "--seeds", "2", "--scheduler", "event"]
        )
        assert rc == 0
        assert "push-pull" in capsys.readouterr().out

    def test_event_scenarios_in_catalogue(self, capsys):
        rc = main(["list-scenarios"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("straggler-tail", "skewed-wan", "rate-limited-edge"):
            assert name in out


class TestReportErrors:
    def _report(self, path):
        return main(["report", str(path)])

    def test_truncated_jsonl_is_clean_error(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "meta", "schema"\n')
        assert self._report(path) == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err and "Traceback" not in err

    def test_non_dict_records_are_clean_error(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("42\n[1, 2]\n")
        assert self._report(path) == 2
        err = capsys.readouterr().err
        assert "not an object" in err

    def test_empty_file_is_clean_error(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        assert self._report(path) == 2
        assert "empty telemetry" in capsys.readouterr().err

    def test_missing_file_is_clean_error(self, capsys, tmp_path):
        assert self._report(tmp_path / "nope.jsonl") == 2
        assert "error:" in capsys.readouterr().err

    def test_schema_drift_is_clean_error(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "meta", "schema": 999, "runs": 0}\n')
        assert self._report(path) == 2
        assert "unsupported schema" in capsys.readouterr().err

    def test_event_tier_telemetry_round_trips(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        rc = main(
            ["run", "--n", "256", "--algorithm", "push-pull",
             "--scheduler", "event", "--telemetry", str(path)]
        )
        assert rc == 0
        capsys.readouterr()
        assert self._report(path) == 0
        assert "sim_time" in capsys.readouterr().out


class TestTaskFlags:
    def test_run_task(self, capsys):
        rc = main(
            ["run", "--n", "512", "--algorithm", "push-pull",
             "--task", "push-sum", "--task-arg", "tol=1e-3", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "task push-sum" in out and "converged=True" in out

    def test_run_task_kwarg_coercion(self, capsys):
        rc = main(
            ["run", "--n", "256", "--algorithm", "push-pull",
             "--task", "k-rumor", "--task-arg", "k=2", "--seed", "0"]
        )
        assert rc == 0

    def test_run_task_reps_vector(self, capsys):
        rc = main(
            ["run", "--n", "256", "--algorithm", "push-pull",
             "--task", "push-sum", "--reps", "4", "--engine", "vector"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "push-sum" in out and "vector" in out

    def test_bad_task_arg_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--task", "push-sum", "--task-arg", "notkv"])

    def test_list_tasks(self, capsys):
        rc = main(["list-tasks"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("broadcast", "k-rumor", "push-sum", "min-max"):
            assert name in out
        assert "algorithms:" in out  # per-task compatibility lines

    def test_task_suite_scenarios(self, capsys):
        rc = main(["suite", "all-cast-k8", "mean-estimation", "--seeds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all-cast-k8" in out and "mean-estimation" in out
