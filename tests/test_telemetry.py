"""Unit and integration tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.analysis.runner import RunSpec
from repro.core.broadcast import broadcast, run_replications
from repro.obs import (
    RoundSeries,
    SpanRecorder,
    Telemetry,
    TelemetryConfig,
    maybe_span,
    read_jsonl,
    render_report,
    validate_records,
    write_jsonl,
)


class TestSpanRecorder:
    def test_records_wall_clock(self):
        rec = SpanRecorder()
        with rec.span("work"):
            pass
        assert len(rec) == 1
        (span,) = rec.records
        assert span.name == "work"
        assert span.wall_ms >= 0
        assert span.depth == 0

    def test_nesting_depths(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        by_name = {r.name: r for r in rec.records}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # Inner closes first (closing order), outer encloses it.
        assert rec.records[0].name == "inner"
        assert by_name["outer"].wall_ms >= by_name["inner"].wall_ms

    def test_recorded_even_on_raise(self):
        rec = SpanRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError()
        assert [r.name for r in rec.records] == ["boom"]

    def test_wall_ms_by_name_aggregates(self):
        rec = SpanRecorder()
        for _ in range(3):
            with rec.span("x"):
                pass
        count, total = rec.wall_ms_by_name()["x"]
        assert count == 3
        assert total >= 0

    def test_maybe_span_none_is_noop(self):
        with maybe_span(None, "anything"):
            pass


class TestRoundSeries:
    def test_append_and_read(self):
        s = RoundSeries()
        s.append(round=1, informed=0.5)
        s.append(round=2, informed=1.0)
        assert len(s) == 2
        assert s.to_columns()["round"] == [1, 2]
        assert s.last() == {"round": 2, "informed": 1.0}

    def test_round_required(self):
        s = RoundSeries()
        with pytest.raises(ValueError):
            s.append(informed=0.5)

    def test_new_columns_backfill_none(self):
        s = RoundSeries()
        s.append(round=1, a=1)
        s.append(round=2, b=2)
        cols = s.to_columns()
        assert cols["a"] == [1, None]
        assert cols["b"] == [None, 2]

    def test_decimation_bounds_memory(self):
        s = RoundSeries(cap=8)
        for r in range(100):
            s.append(round=r)
        assert len(s) < 8
        assert s.decimated
        assert s.stride > 1
        # Kept rounds stay uniformly thinned and ordered.
        rounds = s.to_columns()["round"]
        assert rounds == sorted(rounds)
        assert rounds[0] == 0

    def test_force_keeps_final_sample(self):
        s = RoundSeries(cap=8)
        for r in range(100):
            s.append(round=r, v=r)
        s.force(round=99, v=99)
        assert s.last() == {"round": 99, "v": 99}

    def test_force_respects_cap(self):
        """Regression: repeated forced pushes (distinct rounds, e.g. one
        per vector chunk) must re-thin like append does instead of
        growing one row per force forever — while keeping the latest
        forced row exact."""
        s = RoundSeries(cap=8)
        for r in range(1000):
            s.force(round=r, v=r)
        assert len(s) <= 8
        assert s.decimated
        assert s.last() == {"round": 999, "v": 999}
        rounds = s.to_columns()["round"]
        assert rounds == sorted(rounds)

    def test_force_then_append_keeps_thinning_uniform(self):
        s = RoundSeries(cap=8)
        for r in range(20):
            s.append(round=r, v=r)
        s.force(round=20, v=20)
        for r in range(21, 40):
            s.append(round=r, v=r)
        s.force(round=40, v=40)
        assert len(s) <= 8
        assert s.last() == {"round": 40, "v": 40}

    def test_force_updates_kept_last_row_in_place(self):
        s = RoundSeries()
        s.append(round=5, v=1)
        s.force(round=5, v=7, extra=3)
        assert len(s) == 1
        assert s.last() == {"round": 5, "v": 7, "extra": 3}

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            RoundSeries(cap=4)


class TestTelemetryLifecycle:
    def test_probe_every_validated(self):
        with pytest.raises(ValueError):
            Telemetry(probe_every=0)

    def test_config_round_trip(self):
        tel = Telemetry(probe_every=3, series_cap=64, collect_events=False)
        clone = Telemetry.from_config(tel.config())
        assert clone.config() == TelemetryConfig(
            probe_every=3, series_cap=64, collect_events=False
        )

    def test_begin_finish_run_ids_sequential(self):
        tel = Telemetry()
        a = tel.begin_run({"n": 4})
        b = tel.begin_run({"n": 8})
        assert (a.run_id, b.run_id) == (0, 1)

    def test_finish_run_drops_probe_closures(self):
        tel = Telemetry()
        run = tel.begin_run({})
        run.add_probe("x", lambda sim: 1.0)
        tel.finish_run(run)
        assert run.probes == {}

    def test_merge_renumbers_in_order(self):
        a, b = Telemetry(), Telemetry()
        a.begin_run({"who": "a0"})
        b.begin_run({"who": "b0"})
        b.begin_run({"who": "b1"})
        a.merge(b)
        assert [r.run_id for r in a.runs] == [0, 1, 2]
        assert [r.config["who"] for r in a.runs] == ["a0", "b0", "b1"]


class TestJsonl:
    def test_write_read_validate_round_trip(self, tmp_path):
        tel = Telemetry()
        run = tel.begin_run({"n": 16})
        with run.span("work"):
            pass
        run.series.append(round=1, informed=0.5)
        run.summary["rounds"] = 1
        tel.finish_run(run)
        path = str(tmp_path / "t.jsonl")
        count = tel.write(path)
        records = read_jsonl(path)
        assert len(records) == count == 4  # meta + run + span + series
        assert validate_records(records) == []

    def test_validate_catches_problems(self):
        assert validate_records([]) != []
        assert validate_records([{"type": "run", "id": 0}]) != []  # no meta
        bad_schema = [{"type": "meta", "schema": 99, "runs": 0}]
        assert any("schema" in p for p in validate_records(bad_schema))
        orphan = [
            {"type": "meta", "schema": 1, "runs": 0},
            {"type": "span", "run": 7, "name": "x", "wall_ms": 1.0, "depth": 0},
        ]
        assert any("unknown run" in p for p in validate_records(orphan))
        ragged = [
            {"type": "meta", "schema": 1, "runs": 1},
            {"type": "run", "id": 0, "config": {}, "summary": {}},
            {"type": "series", "run": 0, "columns": {"round": [1, 2], "v": [1]}},
        ]
        assert any("ragged" in p for p in validate_records(ragged))

    def test_read_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2|bad.jsonl:2"):
            read_jsonl(str(path))

    def test_write_jsonl_one_object_per_line(self, tmp_path):
        path = str(tmp_path / "x.jsonl")
        write_jsonl([{"a": 1}, {"b": 2}], path)
        lines = open(path).read().splitlines()
        assert [json.loads(line) for line in lines] == [{"a": 1}, {"b": 2}]


class TestSequentialIntegration:
    def test_broadcast_records_run(self):
        tel = Telemetry()
        report = broadcast(n=256, algorithm="cluster2", seed=1, telemetry=tel)
        assert len(tel.runs) == 1
        run = tel.runs[0]
        assert run.config["algorithm"] == "cluster2"
        assert run.summary["rounds"] == report.rounds
        assert run.summary["success"] == report.success
        # Phase wall-clocks were timed, and the cluster probe sampled.
        assert run.phases and any(p["wall_ms"] > 0 for p in run.phases.values())
        assert run.series.last()["messages"] == report.messages
        assert "clusters" in run.series.to_columns()
        # Trace events captured without the caller passing a trace.
        assert run.events

    def test_probe_every_thins_series(self):
        dense = Telemetry(probe_every=1)
        sparse = Telemetry(probe_every=4)
        broadcast(n=256, algorithm="push-pull", seed=0, telemetry=dense)
        broadcast(n=256, algorithm="push-pull", seed=0, telemetry=sparse)
        assert len(sparse.runs[0].series) < len(dense.runs[0].series)
        # The forced final sample survives thinning.
        assert (
            sparse.runs[0].series.last()["messages"]
            == dense.runs[0].series.last()["messages"]
        )

    def test_informed_probe_on_protocol_runs(self):
        tel = Telemetry()
        broadcast(n=256, algorithm="push-pull", seed=0, telemetry=tel)
        informed = tel.runs[0].series.to_columns()["informed"]
        assert informed[-1] == 1.0

    def test_telemetry_off_leaves_simulator_untouched(self):
        report = broadcast(n=256, algorithm="cluster2", seed=1)
        assert report.metrics.total.wall_ms == 0.0

    def test_identical_results_with_and_without_telemetry(self):
        plain = broadcast(n=256, algorithm="cluster2", seed=5)
        observed = broadcast(
            n=256, algorithm="cluster2", seed=5, telemetry=Telemetry()
        )
        assert (plain.rounds, plain.messages, plain.bits, plain.max_fanin) == (
            observed.rounds,
            observed.messages,
            observed.bits,
            observed.max_fanin,
        )

    def test_task_error_probe_on_task_runs(self):
        tel = Telemetry()
        broadcast(
            n=128, algorithm="push-pull", task="push-sum", seed=0, telemetry=tel
        )
        errors = tel.runs[0].series.to_columns()["task_error"]
        assert errors[-1] is not None and errors[-1] < 1.0


class TestVectorIntegration:
    def test_vector_chunk_run(self):
        tel = Telemetry()
        summary = run_replications(
            256, "cluster2", reps=4, engine="vector", telemetry=tel
        )
        assert len(tel.runs) == 1
        run = tel.runs[0]
        assert run.config["kind"] == "vector"
        assert run.summary["reps"] == 4
        assert run.summary["success_rate"] == summary.success_rate
        names = [r.name for r in run.spans.records]
        assert "chunk" in names and "grow" in names and "pull" in names
        last = run.series.last()
        assert last["messages"] == run.summary["messages_total"]
        assert last["bits"] == run.summary["bits_total"]

    def test_vector_push_pull_series(self):
        tel = Telemetry()
        run_replications(256, "push-pull", reps=3, engine="vector", telemetry=tel)
        run = tel.runs[0]
        assert run.series.last()["informed"] == pytest.approx(1.0)
        assert run.series.last()["messages"] == run.summary["messages_total"]

    @pytest.mark.parametrize("algorithm", ["cluster1", "cluster2"])
    def test_vector_cluster_series_samples_every_round(self, algorithm):
        # At probe_every=1 every committed round is a series row, the
        # idle round of a ClusterMerge in which nothing merges included
        # (the sequential engine samples that round too).
        for seed in (1, 2):
            tel = Telemetry(probe_every=1)
            summary = run_replications(
                4096, algorithm, reps=1, base_seed=seed, engine="vector",
                telemetry=tel,
            )
            rounds = int(summary.metrics["rounds"].maximum)
            series = tel.runs[0].series.to_columns()
            assert series["round"] == list(range(1, rounds + 1))

    def test_sharded_merge_matches_serial(self, tmp_path):
        serial, sharded = Telemetry(), Telemetry()
        run_replications(
            256, "cluster2", reps=64, engine="vector",
            batch_elems=256 * 16, telemetry=serial,
        )
        run_replications(
            256, "cluster2", reps=64, engine="vector",
            batch_elems=256 * 16, workers=1, telemetry=sharded,
        )
        assert len(serial.runs) == len(sharded.runs) > 1
        for a, b in zip(serial.runs, sharded.runs):
            assert a.run_id == b.run_id
            assert a.summary == b.summary
        # Both export to valid JSONL.
        path = str(tmp_path / "sharded.jsonl")
        sharded.write(path)
        assert validate_records(read_jsonl(path)) == []

    def test_reset_engine_one_run_per_replication(self):
        tel = Telemetry()
        run_replications(256, "cluster2", reps=3, engine="reset", telemetry=tel)
        assert len(tel.runs) == 3
        assert [r.config["seed"] for r in tel.runs] == [0, 1, 2]


class TestRunSpecSurface:
    def test_run_attaches_collector(self):
        spec = RunSpec(
            algorithm="cluster2", n=256, seed=0,
            telemetry=TelemetryConfig(probe_every=2),
        )
        report = spec.run()
        tel = report.extras["telemetry"]
        assert isinstance(tel, Telemetry)
        assert tel.probe_every == 2
        assert len(tel.runs) == 1

    def test_replicate_attaches_collector(self):
        spec = RunSpec(
            algorithm="cluster2", n=256, seed=0, reps=4, engine="vector",
            telemetry=TelemetryConfig(),
        )
        summary = spec.replicate()
        assert isinstance(summary.telemetry, Telemetry)
        assert len(summary.telemetry.runs) >= 1

    def test_no_telemetry_no_extras(self):
        report = RunSpec(algorithm="cluster2", n=256, seed=0).run()
        assert "telemetry" not in report.extras


class TestRenderReport:
    def _records(self, tmp_path):
        tel = Telemetry()
        broadcast(n=256, algorithm="cluster2", seed=1, telemetry=tel)
        run_replications(256, "cluster2", reps=3, engine="vector", telemetry=tel)
        path = str(tmp_path / "t.jsonl")
        tel.write(path)
        return read_jsonl(path)

    def test_renders_phases_series_and_spans(self, tmp_path):
        records = self._records(tmp_path)
        assert validate_records(records) == []
        text = render_report(records)
        assert "phase x wall-clock" in text
        assert "wall ms" in text
        assert "grow" in text
        assert "round series" in text
        assert "run 0" in text and "run 1" in text

    def test_series_rows_capped(self, tmp_path):
        records = self._records(tmp_path)
        text = render_report(records, max_series_rows=6)
        assert "shown)" in text
