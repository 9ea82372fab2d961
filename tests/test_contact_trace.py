"""Tests for the causal trace layer (repro.obs.trace) and its plumbing:
span trees, broadcast/replication/CLI threading."""

import numpy as np
import pytest

from repro.analysis.runner import RunSpec
from repro.cli import main
from repro.core.broadcast import broadcast, run_replications
from repro.obs import (
    ContactTrace,
    Telemetry,
    render_critical_path,
    render_report,
    validate_records,
)
from repro.obs.trace import path_record, trace_record
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import derive_seed, make_rng
from repro.sim.schedule import EventSchedulerSpec, parse_delay
from repro.sim.topology import NodeSlowdownDelay


def _traced(n=256, seed=7, delay=None, algorithm="push-pull"):
    spec = EventSchedulerSpec(
        trace=True, delay=parse_delay(delay) if delay else None
    )
    return broadcast(n, algorithm, seed=seed, scheduler=spec)


class TestContactTrace:
    def test_records_every_contact(self):
        report = _traced()
        trace = report.extras["contact_trace"]
        assert isinstance(trace, ContactTrace)
        cols = trace.columns()
        assert len(trace) == len(cols["src"]) > 0
        # Completion never precedes the start it extends.
        assert np.all(cols["complete"] >= cols["start"])
        assert trace.sim_time == pytest.approx(report.extras["sim_time"])

    def test_empty_trace(self):
        trace = ContactTrace(8)
        assert len(trace) == 0 and trace.sim_time == 0.0
        path = trace.critical_path()
        assert path.length == 0 and path.hops == {}
        assert trace.slack_histogram()["counts"] == []

    def test_critical_path_reaches_time_zero(self):
        path = _traced().extras["critical_path"]
        assert path.hops["start"][0] == 0.0
        assert path.hops["complete"][-1] == pytest.approx(path.sim_time)
        # Each hop starts exactly where its predecessor completed at the
        # same node (the scheduler's clock fold, inverted).
        for i in range(1, path.length):
            assert path.hops["start"][i] == pytest.approx(
                path.hops["complete"][i - 1]
            )
        # Rounds strictly increase along the chain.
        assert all(
            a < b for a, b in zip(path.hops["round"], path.hops["round"][1:])
        )

    def test_path_length_bounded_by_rounds(self):
        for delay in (None, "constant:2", "jitter:0.5,1.5"):
            report = _traced(delay=delay)
            assert report.extras["critical_path_len"] <= report.rounds

    def test_unit_delay_path_length_equals_rounds(self):
        # Unit delays: every round's frontier contact extends the clock
        # by exactly 1, so the chain to sim_time = rounds has one hop
        # per round.
        report = _traced(delay="constant:1")
        assert report.extras["critical_path_len"] == report.rounds
        assert report.extras["dilation"] == pytest.approx(1.0)

    def test_attribution_shares_sum_to_one(self):
        path = _traced(delay="straggler:fraction=0.05,factor=10").extras[
            "critical_path"
        ]
        assert sum(path.node_share.values()) == pytest.approx(1.0)
        assert sum(path.edge_share.values()) == pytest.approx(1.0)
        top = path.top_nodes(3)
        assert top == sorted(top, key=lambda kv: (-kv[1], kv[0]))

    def test_straggler_attribution_names_slow_nodes(self):
        n, seed = 256, 7
        report = _traced(n=n, seed=seed, delay="straggler:fraction=0.05,factor=10")
        path = report.extras["critical_path"]
        # Ground truth: rebind the delay model on the run's own stream.
        slow = NodeSlowdownDelay(base=1.0, fraction=0.05, factor=10.0).bind(
            n, None, make_rng(derive_seed(seed, "delay"))
        )._slow[0]
        slow_set = set(np.nonzero(slow)[0].tolist())
        assert path.top_nodes(1)[0][0] in slow_set
        slow_share = sum(s for v, s in path.node_share.items() if v in slow_set)
        assert slow_share >= 0.4
        assert report.extras["dilation"] >= 5.0

    def test_slack_zero_on_critical_contacts(self):
        trace = _traced().extras["contact_trace"]
        slacks = trace.slack()
        assert len(slacks) > 0 and np.all(slacks >= 0)
        # Some delivery each round is locally tight.
        assert np.min(slacks) == 0.0

    def test_front_monotone(self):
        trace = _traced().extras["contact_trace"]
        front = trace.front()
        assert front["informed"] == sorted(front["informed"])
        assert front["time"] == sorted(front["time"])
        assert front["informed"][-1] <= trace.n

    def test_tracing_preserves_logical_metrics(self):
        base = broadcast(256, "push-pull", seed=7)
        traced = _traced()
        event = broadcast(256, "push-pull", seed=7, scheduler="event")
        for a, b in ((base, traced), (event, traced)):
            assert (a.rounds, a.messages, a.bits, a.max_fanin) == (
                b.rounds, b.messages, b.bits, b.max_fanin
            )


class TestContactKinds:
    """The trace's ``push`` column follows each op's kind, counting empty
    ops: an empty push op ahead of a pull op once turned every pull
    into a push."""

    @staticmethod
    def _traced_sim(n=16):
        net = Network(n, rng=0)
        scheduler = EventSchedulerSpec(trace=True).bind(net, make_rng(3))
        return Simulator(net, make_rng(1), scheduler=scheduler)

    def test_empty_push_op_before_a_pull(self):
        sim = self._traced_sim()
        none = np.array([], dtype=np.int64)
        with sim.round("mixed") as r:
            r.push(none, none, 8)
            r.pull(np.array([1, 2, 3]), np.array([4, 5, 6]), 8)
        cols = sim.scheduler.contacts.columns()
        assert cols["src"].tolist() == [1, 2, 3]
        assert not cols["push"].any()

    def test_pushes_then_pulls_whatever_the_declaration_order(self):
        sim = self._traced_sim()
        with sim.round("mixed") as r:
            r.pull(np.array([1, 2]), np.array([4, 5]), 8)
            r.push(np.array([7]), np.array([8]), 8)
        cols = sim.scheduler.contacts.columns()
        assert cols["src"].tolist() == [7, 1, 2]
        assert cols["push"].tolist() == [True, False, False]

    def test_median_counter_with_a_dead_source(self):
        # 200 failures leave the source dead: no node transmits, so
        # every round declares an empty push op and a full pull op.
        report = broadcast(512, "median-counter", seed=1, trace=True, failures=200)
        push = report.extras["contact_trace"].columns()["push"]
        total = report.metrics.total
        assert total.pushes == 0 and total.pull_requests > 0
        assert int(push.sum()) == total.pushes
        assert int((~push).sum()) == total.pull_requests


class TestRecords:
    def test_trace_record_roundtrips_columns(self):
        trace = _traced().extras["contact_trace"]
        rec = trace_record(trace)
        assert rec["type"] == "trace" and not rec["subsampled"]
        assert rec["contacts"] == len(trace)
        lengths = {len(col) for col in rec["columns"].values()}
        assert lengths == {len(trace)}
        assert set(rec["columns"]["kind"]) <= {"push", "pull"}

    def test_trace_record_subsamples_beyond_cap(self):
        trace = _traced().extras["contact_trace"]
        rec = trace_record(trace, cap=10)
        assert rec["subsampled"] and rec["contacts"] == len(trace)
        assert len(rec["columns"]["src"]) <= 10
        # First and last contacts always survive the stride.
        cols = trace.columns()
        assert rec["columns"]["src"][0] == int(cols["src"][0])
        assert rec["columns"]["src"][-1] == int(cols["src"][-1])

    def test_path_record_shape(self):
        report = _traced()
        rec = path_record(
            report.extras["contact_trace"],
            report.extras["critical_path"],
            rounds=report.rounds,
        )
        assert rec["type"] == "path"
        assert rec["length"] == report.extras["critical_path_len"]
        assert rec["rounds"] == report.rounds
        assert set(rec["front"]) == {"round", "time", "informed"}
        assert all(isinstance(k, str) for k in rec["node_attribution"])


class TestBroadcastThreading:
    def test_trace_true_upgrades_scheduler(self):
        report = broadcast(256, "push-pull", seed=7, trace=True)
        assert "contact_trace" in report.extras
        assert report.extras["scheduler"].startswith("event")

    def test_trace_false_is_untouched_path(self):
        report = broadcast(256, "push-pull", seed=7, trace=False)
        assert "contact_trace" not in report.extras
        assert "scheduler" not in report.extras

    def test_replications_gain_path_streams(self):
        summary = run_replications(
            256, "push-pull", reps=3, trace=True
        )
        row = summary.row()
        assert row["critical_path_len_mean"] > 0
        assert row["dilation_mean"] > 0
        assert summary.metrics["critical_path_len"].count == 3

    def test_runspec_trace_field(self):
        report = RunSpec(
            algorithm="push-pull", n=256, seed=7, trace=True
        ).run()
        assert report.extras["critical_path_len"] <= report.rounds

    def test_telemetry_export_is_schema_v2(self, tmp_path):
        tel = Telemetry()
        broadcast(
            256, "push-pull", seed=7, trace=True, telemetry=tel
        )
        records = list(tel.records())
        assert records[0]["schema"] == 2
        kinds = {rec["type"] for rec in records}
        assert {"trace", "path"} <= kinds
        assert validate_records(records) == []

    def test_untraced_telemetry_stays_v1(self):
        tel = Telemetry()
        broadcast(256, "push-pull", seed=7, telemetry=tel)
        records = list(tel.records())
        assert records[0]["schema"] == 1
        assert not any(rec["type"] in ("trace", "path") for rec in records)


class TestEventQueueCap:
    def test_trace_is_never_capped(self):
        # The documented contract: critical-path extraction needs every
        # contact, so the ContactTrace carries no cap of any kind.
        report = broadcast(
            512,
            "push-pull",
            seed=3,
            scheduler=EventSchedulerSpec(trace=True),
        )
        trace = report.extras["contact_trace"]
        assert len(trace) > 16
        assert report.extras["critical_path_len"] <= report.rounds


class TestSpanTree:
    def test_ids_monotonic_and_parented(self):
        from repro.obs import SpanRecorder

        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
            with rec.span("inner2"):
                pass
        by_name = {r.name: r for r in rec.records}
        assert by_name["outer"].id == 0
        assert by_name["inner"].parent_id == 0
        assert by_name["inner2"].parent_id == 0
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].id < by_name["inner2"].id

    def test_report_indents_nested_spans(self):
        spans = [
            {"type": "span", "run": 0, "name": "inner", "start_ms": 0.0,
             "wall_ms": 1.0, "depth": 1, "id": 1, "parent_id": 0},
            {"type": "span", "run": 0, "name": "outer", "start_ms": 0.0,
             "wall_ms": 2.0, "depth": 0, "id": 0, "parent_id": None},
        ]
        records = [
            {"type": "meta", "schema": 1, "probe_every": 1, "series_cap": 8,
             "runs": 1},
            {"type": "run", "id": 0, "config": {"n": 8}, "summary": {},
             "phases": None},
        ] + spans
        out = render_report(records)
        lines = out.splitlines()
        outer = next(l for l in lines if "outer" in l)
        inner = next(l for l in lines if "inner" in l)
        assert lines.index(outer) < lines.index(inner)
        assert inner.index("inner") > outer.index("outer")

    def test_flat_fallback_without_ids(self):
        records = [
            {"type": "meta", "schema": 1, "probe_every": 1, "series_cap": 8,
             "runs": 1},
            {"type": "run", "id": 0, "config": {}, "summary": {},
             "phases": None},
            {"type": "span", "run": 0, "name": "legacy", "start_ms": 0.0,
             "wall_ms": 1.0, "depth": 0},
        ]
        assert "legacy" in render_report(records)


class TestCli:
    def test_run_trace_writes_and_renders(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main([
            "run", "--n", "256", "--algorithm", "push-pull", "--seed", "7",
            "--delay", "straggler:fraction=0.05,factor=10",
            "--trace", str(out),
        ]) == 0
        assert "critical path:" in capsys.readouterr().out
        assert main(["report", "--critical-path", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "top nodes by dilation share" in rendered
        assert "informed front" in rendered
        assert "slack" in rendered

    def test_report_critical_path_needs_path_records(self, tmp_path, capsys):
        out = tmp_path / "plain.jsonl"
        assert main([
            "run", "--n", "256", "--algorithm", "push-pull",
            "--telemetry", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--critical-path", str(out)]) == 2
        assert "no path records" in capsys.readouterr().err

    def test_run_trace_with_reps(self, tmp_path, capsys):
        out = tmp_path / "reps.jsonl"
        assert main([
            "run", "--n", "256", "--algorithm", "push-pull", "--reps", "3",
            "--trace", str(out),
        ]) == 0
        assert "critical path: mean" in capsys.readouterr().out
        assert main(["report", "--critical-path", str(out)]) == 0
        assert capsys.readouterr().out.count("critical path") >= 3

    def test_render_critical_path_rejects_empty(self):
        with pytest.raises(ValueError, match="no path records"):
            render_critical_path([{"type": "meta", "schema": 1}])
