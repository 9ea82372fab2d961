"""Unit tests for ``Simulator.emit``, the one sink for coarse events."""

import numpy as np

from repro import broadcast
from repro.obs.telemetry import Telemetry

from helpers import build_sim


class TestEmit:
    def test_noop_without_telemetry(self):
        sim = build_sim(8)
        assert sim.telemetry is None
        sim.emit("phase", name="grow")
        assert sim.telemetry is None

    def test_collect_events_off_records_nothing(self):
        sim = build_sim(8)
        sim.telemetry = Telemetry(collect_events=False).begin_run({})
        sim.emit("phase", name="grow")
        sim.idle_round()
        sim.emit("phase", name="square")
        assert sim.telemetry.events == []

    def test_one_record_per_call_at_the_current_round(self):
        sim = build_sim(8)
        sim.telemetry = Telemetry().begin_run({})
        sim.emit("phase", name="grow")
        sim.idle_round()
        sim.idle_round()
        sim.emit("join", count=np.int64(7), frac=np.float64(0.5))
        assert sim.telemetry.events == [
            {"round": 0, "kind": "phase", "data": {"name": "grow"}},
            {"round": 2, "kind": "join", "data": {"count": 7, "frac": 0.5}},
        ]
        # Payloads are plain python, so the records serialise as JSON.
        assert type(sim.telemetry.events[1]["data"]["count"]) is int

    def test_broadcast_honours_collect_events(self):
        on, off = Telemetry(), Telemetry(collect_events=False)
        broadcast(256, "cluster2", seed=1, telemetry=on)
        broadcast(256, "cluster2", seed=1, telemetry=off)
        assert on.runs[0].events[-1]["kind"] == "done"
        assert off.runs[0].events == []
        # The rest of the run is still recorded with events off.
        assert off.runs[0].summary["rounds"] == on.runs[0].summary["rounds"]
        assert len(off.runs[0].series) == len(on.runs[0].series)
