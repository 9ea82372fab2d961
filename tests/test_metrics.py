"""Unit tests for repro.sim.metrics."""

import pytest

from repro.sim.metrics import Metrics


def record(m: Metrics, *, pushes=0, push_bits=0, pull_requests=0, pull_responses=0,
           pull_bits=0, max_fanin=0, max_initiations=0):
    m.record_round(
        pushes=pushes,
        push_bits=push_bits,
        pull_requests=pull_requests,
        pull_responses=pull_responses,
        pull_bits=pull_bits,
        max_fanin=max_fanin,
        max_initiations=max_initiations,
    )


class TestAccounting:
    def test_round_counts(self):
        m = Metrics(10)
        record(m)
        record(m)
        assert m.rounds == 2

    def test_messages_are_pushes_plus_responses(self):
        m = Metrics(10)
        record(m, pushes=3, pull_requests=5, pull_responses=2)
        assert m.messages == 5
        assert m.total.pull_requests == 5

    def test_bits_sum(self):
        m = Metrics(10)
        record(m, pushes=1, push_bits=100, pull_responses=1, pull_bits=50)
        assert m.bits == 150

    def test_fanin_is_max(self):
        m = Metrics(10)
        record(m, max_fanin=3)
        record(m, max_fanin=7)
        record(m, max_fanin=2)
        assert m.max_fanin == 7

    def test_per_node_figures(self):
        m = Metrics(4)
        record(m, pushes=8, push_bits=80)
        assert m.messages_per_node() == 2.0
        assert m.bits_per_node() == 20.0


class TestPhases:
    def test_phase_attribution(self):
        m = Metrics(10)
        with m.phase("grow"):
            record(m, pushes=2)
        with m.phase("pull"):
            record(m, pushes=3)
        assert m.phases["grow"].pushes == 2
        assert m.phases["pull"].pushes == 3
        assert m.total.pushes == 5

    def test_phase_reentry_accumulates(self):
        m = Metrics(10)
        with m.phase("grow"):
            record(m, pushes=1)
        with m.phase("grow"):
            record(m, pushes=1)
        assert m.phases["grow"].pushes == 2
        assert m.phases["grow"].rounds == 2

    def test_unphased_bucket(self):
        m = Metrics(10)
        record(m, pushes=1)
        assert m.phases[Metrics.UNPHASED].pushes == 1

    def test_nesting_rejected(self):
        m = Metrics(10)
        with pytest.raises(RuntimeError):
            with m.phase("a"):
                with m.phase("b"):
                    pass

    def test_phase_report_renders(self):
        m = Metrics(10)
        with m.phase("grow"):
            record(m, pushes=2, push_bits=20, max_fanin=1)
        text = m.phase_report()
        assert "grow" in text and "TOTAL" in text


class TestWallClock:
    def test_phase_times_into_span_recorder(self):
        from repro.obs.spans import SpanRecorder

        m = Metrics(10)
        m.span_recorder = SpanRecorder()
        with m.phase("grow"):
            record(m)
        assert m.phases["grow"].wall_ms > 0
        assert m.total.wall_ms == m.phases["grow"].wall_ms
        assert [r.name for r in m.span_recorder.records] == ["phase:grow"]

    def test_no_recorder_no_wall_clock(self):
        m = Metrics(10)
        with m.phase("grow"):
            record(m)
        assert m.phases["grow"].wall_ms == 0.0

    def test_phase_report_wall_column(self):
        from repro.obs.spans import SpanRecorder

        m = Metrics(10)
        record(m)
        # Without timings, the wall ms column shows an em-dash.
        assert "wall ms" in m.phase_report()
        assert "—" in m.phase_report()
        m.span_recorder = SpanRecorder()
        with m.phase("grow"):
            record(m)
        report = m.phase_report()
        grow_line = next(line for line in report.splitlines() if "grow" in line)
        assert "—" not in grow_line
