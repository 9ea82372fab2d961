"""Tests for the Karp et al. median-counter baseline [10]."""

import math

import pytest

from repro.baselines.median_counter import (
    STATE_B,
    STATE_C,
    STATE_D,
    UNINFORMED,
    MedianCounterProtocol,
    median_counter,
)

from helpers import build_sim


class TestCorrectness:
    @pytest.mark.parametrize("n", [512, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_everyone_informed(self, n, seed):
        report = median_counter(build_sim(n, seed=seed))
        assert report.success

    def test_protocol_quiesces(self):
        """The point of [10]: a local stopping rule — every node ends in
        state D (quiet) without global knowledge."""
        sim = build_sim(2048, seed=0)
        protocol = MedianCounterProtocol(sim, 0)
        for _ in range(200):
            if protocol.done():
                break
            protocol.step(sim)
        assert protocol.done()
        assert (protocol.state[sim.net.alive] == STATE_D).all()

    def test_model_respected(self):
        sim = build_sim(512, seed=1)
        report = median_counter(sim)
        assert report.metrics.total.max_initiations <= 1


class TestComplexity:
    def test_messages_sublogarithmic(self):
        """O(log log n)/node vs push's Theta(log n)/node: the gap must be
        visible and widen with n."""
        from repro.baselines.uniform_push import uniform_push

        for n in (2**12, 2**15):
            mc = median_counter(build_sim(n, seed=0)).messages_per_node
            # absolute budget: c * loglog n with laptop constant c ~ 6
            assert mc <= 8 * math.log2(math.log2(n)) + 8

    def test_messages_flat_versus_push(self):
        from repro.baselines.uniform_push import uniform_push

        n = 2**14
        mc = median_counter(build_sim(n, seed=1)).messages_per_node
        push = uniform_push(build_sim(n, seed=1)).messages_per_node
        assert mc <= 1.5 * push  # laptop constants keep them comparable...
        # ...but the growth from 2^9 to 2^15 must be smaller for mc:
        mc_lo = median_counter(build_sim(2**9, seed=1)).messages_per_node
        mc_hi = median_counter(build_sim(2**15, seed=1)).messages_per_node
        push_lo = uniform_push(build_sim(2**9, seed=1)).messages_per_node
        push_hi = uniform_push(build_sim(2**15, seed=1)).messages_per_node
        assert (mc_hi - mc_lo) < (push_hi - push_lo)

    def test_rounds_logarithmic(self):
        n = 2**13
        report = median_counter(build_sim(n, seed=0))
        assert report.spread_rounds <= 3 * math.log2(n)

    def test_spread_precedes_quiescence(self):
        """``spread_rounds`` is when everyone was informed; the counters
        then run out for a few more rounds before the run is quiet."""
        report = median_counter(build_sim(4096, seed=0))
        assert report.success
        assert 0 < report.spread_rounds < report.rounds


class TestStateMachine:
    def test_counters_monotone_and_bounded(self):
        sim = build_sim(1024, seed=0)
        protocol = MedianCounterProtocol(sim, 0)
        prev = protocol.counter.copy()
        for _ in range(30):
            protocol.step(sim)
            assert (protocol.counter >= prev).all()
            prev = protocol.counter.copy()
            assert protocol.counter.max() <= protocol.ctr_max + 1

    def test_uninformed_never_in_b(self):
        sim = build_sim(512, seed=2)
        protocol = MedianCounterProtocol(sim, 0)
        for _ in range(20):
            protocol.step(sim)
            informed = protocol.state != UNINFORMED
            assert (protocol.counter[~informed] == 0).all()
