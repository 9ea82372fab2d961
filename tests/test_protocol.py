"""Unit tests for the sequential random phone call loop,
:func:`repro.tasks.transports.run_uniform_task`."""

import numpy as np
import pytest

from repro.obs.telemetry import Telemetry
from repro.tasks.state import BroadcastState, TaskState
from repro.tasks.transports import run_uniform_task

from helpers import build_sim


class CountdownState(TaskState):
    """Done after a fixed number of rounds.  Nobody holds content, so
    every round of the loop is an idle one."""

    task = "countdown"

    def __init__(self, n: int, steps: int):
        super().__init__(n)
        self.remaining = steps

    def end_round(self):
        self.remaining -= 1

    def has_content(self, nodes):
        return np.zeros(len(nodes), dtype=bool)

    def payload_bits(self, nodes):
        return 0

    def begin_push(self, srcs):
        return None

    def finish_push(self, token, srcs, dsts):
        pass

    def deliver_pull(self, receivers, responders):
        pass

    def completion_mask(self):
        return np.full(self.n, self.remaining <= 0)

    def error(self, alive):
        return float(self.remaining > 0)


def countdown(steps: int, **kwargs):
    sim = build_sim(8)
    completion = run_uniform_task(
        sim, CountdownState(8, steps), mode="push", **kwargs
    )
    return sim, completion


class TestRunProtocol:
    def test_stops_at_done(self):
        sim, completion = countdown(3, max_rounds=10)
        assert sim.metrics.rounds == 3
        assert completion == 3

    def test_cap_enforced(self):
        sim, completion = countdown(100, max_rounds=5)
        assert sim.metrics.rounds == 5
        assert completion is None

    def test_run_to_cap_keeps_going(self):
        sim, completion = countdown(2, max_rounds=6, run_to_cap=True)
        assert sim.metrics.rounds == 6
        assert completion == 2

    def test_already_done(self):
        sim, completion = countdown(0, max_rounds=5)
        assert sim.metrics.rounds == 0
        assert completion == 0

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            countdown(1, max_rounds=-1)

    def test_trace_gets_steps(self):
        sim = build_sim(8)
        sim.telemetry = Telemetry().begin_run({})
        run_uniform_task(sim, CountdownState(8, 2), mode="push", max_rounds=5)
        steps = [e for e in sim.telemetry.events if e["kind"] == "countdown.step"]
        assert [e["round"] for e in steps] == [1, 2]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be"):
            run_uniform_task(build_sim(8), CountdownState(8, 1), mode="gossip")

    def test_steps_to_cap_with_no_alive_node(self):
        # A broadcast schedule has no local stopping rule: even with
        # nobody left alive it runs (idle) to the cap.
        sim = build_sim(16)
        state = BroadcastState(sim.net, 0)
        sim.net.fail(np.arange(16))
        completion = run_uniform_task(
            sim, state, mode="push-pull", max_rounds=4, run_to_cap=True
        )
        assert sim.metrics.rounds == 4 and sim.metrics.messages == 0
        assert completion == 0

