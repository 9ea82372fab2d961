"""Unit tests for ``Simulator.emit``, the one sink for coarse events."""

import numpy as np
import pytest

from repro import broadcast
from repro.core.clustering import Clustering
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Simulator

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


@pytest.mark.parametrize("algorithm", ["cluster2", "push-pull"])
@pytest.mark.parametrize("collect", [None, False], ids=["off", "no-events"])
def test_runs_that_record_no_events_build_no_payload(algorithm, collect, monkeypatch):
    """Every ``emit`` call sits under ``sim.records_events``, so a run
    with telemetry off, or on with ``collect_events=False``, never
    reaches ``emit`` and evaluates none of its payloads — nor
    Cluster2's clustered counts, which only payloads read."""
    calls = []
    monkeypatch.setattr(Simulator, "emit", lambda sim, kind, **data: calls.append(kind))
    counted = Clustering.clustered_count

    def clustered_count(cl):
        calls.append("clustered_count")
        return counted(cl)

    monkeypatch.setattr(Clustering, "clustered_count", clustered_count)
    telemetry = None if collect is None else Telemetry(collect_events=collect)
    broadcast(256, algorithm, seed=1, telemetry=telemetry)
    assert calls == []
    broadcast(256, algorithm, seed=1, telemetry=Telemetry())
    assert calls  # the same run records events once they are collected
