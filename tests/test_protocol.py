"""Unit tests for the VectorProtocol runner."""

import numpy as np
import pytest

from repro.obs.telemetry import Telemetry
from repro.sim.protocol import ProtocolResult, VectorProtocol, run_protocol

from helpers import build_sim


class CountdownProtocol(VectorProtocol):
    """Finishes after a fixed number of steps; each step is one idle round."""

    name = "countdown"

    def __init__(self, steps: int):
        self.remaining = steps

    def step(self, sim):
        sim.idle_round("countdown")
        self.remaining -= 1

    def done(self):
        return self.remaining <= 0

    def progress(self):
        return 1.0 if self.done() else 0.0


class TestRunProtocol:
    def test_stops_at_done(self):
        sim = build_sim(8)
        result = run_protocol(CountdownProtocol(3), sim, max_rounds=10)
        assert result.rounds == 3
        assert result.completed
        assert result.completion_round == 3

    def test_cap_enforced(self):
        sim = build_sim(8)
        result = run_protocol(CountdownProtocol(100), sim, max_rounds=5)
        assert result.rounds == 5
        assert not result.completed
        assert result.completion_round is None

    def test_run_to_cap_keeps_going(self):
        sim = build_sim(8)
        result = run_protocol(CountdownProtocol(2), sim, max_rounds=6, run_to_cap=True)
        assert result.rounds == 6
        assert result.completion_round == 2

    def test_already_done(self):
        sim = build_sim(8)
        result = run_protocol(CountdownProtocol(0), sim, max_rounds=5)
        assert result.rounds == 0
        assert result.completion_round == 0

    def test_negative_cap_rejected(self):
        sim = build_sim(8)
        with pytest.raises(ValueError):
            run_protocol(CountdownProtocol(1), sim, max_rounds=-1)

    def test_trace_gets_steps(self):
        sim = build_sim(8)
        sim.telemetry = Telemetry().begin_run({})
        run_protocol(CountdownProtocol(2), sim, max_rounds=5)
        steps = [e for e in sim.telemetry.events if e["kind"] == "countdown.step"]
        assert [e["round"] for e in steps] == [1, 2]
