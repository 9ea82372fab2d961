"""Unit tests for the synchronous round engine."""

import numpy as np
import pytest

from repro.sim.engine import ModelViolation, Simulator
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.rng import make_rng

from helpers import build_sim


class TestModelValidation:
    def test_double_initiation_rejected(self):
        sim = build_sim(10)
        with pytest.raises(ModelViolation):
            with sim.round("bad") as r:
                r.push(np.array([3]), np.array([4]), 8)
                r.push(np.array([3]), np.array([5]), 8)

    def test_push_then_pull_same_node_rejected(self):
        sim = build_sim(10)
        with pytest.raises(ModelViolation):
            with sim.round("bad") as r:
                r.push(np.array([3]), np.array([4]), 8)
                r.pull(np.array([3]), np.array([5]), 8)

    def test_free_ride_pull_allowed(self):
        sim = build_sim(10)
        with sim.round("call") as r:
            r.push(np.array([3]), np.array([4]), 8)
            r.pull(np.array([3]), np.array([4]), 8, counts_initiation=False)
        assert sim.metrics.rounds == 1

    def test_distinct_initiators_fine(self):
        sim = build_sim(10)
        with sim.round("ok") as r:
            r.push(np.arange(5), np.arange(5) + 5, 8)
        assert sim.metrics.total.pushes == 5

    def test_mismatched_arrays_rejected(self):
        sim = build_sim(10)
        with pytest.raises(ValueError):
            with sim.round() as r:
                r.push(np.array([1, 2]), np.array([3]), 8)


class TestPushSemantics:
    def test_delivery_to_alive(self):
        sim = build_sim(10)
        d = sim.push_round(np.array([0, 1]), np.array([2, 3]), 8)
        assert d.srcs.tolist() == [0, 1]
        assert d.dsts.tolist() == [2, 3]

    def test_dead_source_dropped_and_uncharged(self):
        sim = build_sim(10)
        sim.net.fail([0])
        sim.push_round(np.array([0, 1]), np.array([2, 3]), 8)
        assert sim.metrics.total.pushes == 1

    def test_dead_target_charged_not_delivered(self):
        sim = build_sim(10)
        sim.net.fail([2])
        d = sim.push_round(np.array([0, 1]), np.array([2, 3]), 8)
        assert sim.metrics.total.pushes == 2
        assert d.dsts.tolist() == [3]

    def test_bits_scalar(self):
        sim = build_sim(10)
        sim.push_round(np.array([0, 1]), np.array([2, 3]), 10)
        assert sim.metrics.bits == 20

    def test_bits_vector(self):
        sim = build_sim(10)
        sim.push_round(np.array([0, 1]), np.array([2, 3]), np.array([10, 30]))
        assert sim.metrics.bits == 40

    def test_bits_vector_shape_checked(self):
        sim = build_sim(10)
        with pytest.raises(ValueError):
            sim.push_round(np.array([0, 1]), np.array([2, 3]), np.array([10]))


class TestPullSemantics:
    def test_response_charged_when_answered(self):
        sim = build_sim(10)
        sim.pull_round(np.array([0]), np.array([1]), 16)
        assert sim.metrics.total.pull_responses == 1
        assert sim.metrics.bits == 16

    def test_no_response_no_message(self):
        sim = build_sim(10)
        out = sim.pull_round(np.array([0]), np.array([1]), 16, responds=np.array([False]))
        assert not out.answered[0]
        assert sim.metrics.messages == 0
        assert sim.metrics.total.pull_requests == 1

    def test_dead_responder_silent(self):
        sim = build_sim(10)
        sim.net.fail([1])
        out = sim.pull_round(np.array([0]), np.array([1]), 16)
        assert not out.answered[0]
        assert sim.metrics.messages == 0

    def test_dead_puller_dropped(self):
        sim = build_sim(10)
        sim.net.fail([0])
        sim.pull_round(np.array([0]), np.array([1]), 16)
        assert sim.metrics.total.pull_requests == 0


class TestFanin:
    def test_fanin_counts_pushes_and_requests(self):
        sim = build_sim(10)
        with sim.round() as r:
            r.push(np.array([0, 1, 2]), np.array([9, 9, 9]), 8)
            r.pull(np.array([3, 4]), np.array([9, 9]), 8)
        assert sim.metrics.max_fanin == 5

    def test_fanin_ignores_dead_targets(self):
        sim = build_sim(10)
        sim.net.fail([9])
        with sim.round() as r:
            r.push(np.array([0, 1, 2]), np.array([9, 9, 9]), 8)
        assert sim.metrics.max_fanin == 0


class TestRoundLifecycle:
    def test_double_commit_rejected(self):
        sim = build_sim(10)
        r = sim.round()
        r.commit()
        with pytest.raises(RuntimeError):
            r.commit()

    def test_exception_skips_commit(self):
        sim = build_sim(10)
        with pytest.raises(KeyError):
            with sim.round():
                raise KeyError("boom")
        assert sim.metrics.rounds == 0

    def test_idle_round_counts(self):
        sim = build_sim(10)
        sim.idle_round()
        assert sim.metrics.rounds == 1
        assert sim.metrics.messages == 0

    def test_random_targets_length(self):
        sim = build_sim(10)
        assert len(sim.random_targets(np.arange(7))) == 7

    def test_random_targets_never_self(self):
        sim = build_sim(16)
        srcs = np.arange(16)
        for _ in range(50):
            assert (sim.random_targets(srcs) != srcs).all()

    def test_default_metrics_created(self):
        net = Network(8, rng=0)
        sim = Simulator(net, make_rng(0))
        assert isinstance(sim.metrics, Metrics)
