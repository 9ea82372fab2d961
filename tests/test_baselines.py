"""Tests for the plain PUSH / PULL / PUSH-PULL baselines."""

import math

import pytest

from repro.baselines.push_pull import uniform_push_pull
from repro.baselines.uniform_pull import uniform_pull
from repro.baselines.uniform_push import uniform_push
from repro.sim.caps import round_cap

from helpers import build_sim


ALGOS = [
    (uniform_push, "push"),
    (uniform_pull, "pull"),
    (uniform_push_pull, "push-pull"),
]


class TestCorrectness:
    @pytest.mark.parametrize("runner,name", ALGOS, ids=[a[1] for a in ALGOS])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_everyone_informed(self, runner, name, seed):
        sim = build_sim(2048, seed=seed)
        report = runner(sim, source=0)
        assert report.success, name

    @pytest.mark.parametrize("runner,name", ALGOS, ids=[a[1] for a in ALGOS])
    def test_schedule_runs_to_cap(self, runner, name):
        sim = build_sim(1024, seed=0)
        report = runner(sim)
        assert report.rounds == round_cap(name, 1024)
        assert report.spread_rounds <= report.rounds

    @pytest.mark.parametrize("runner,name", ALGOS, ids=[a[1] for a in ALGOS])
    def test_model_respected(self, runner, name):
        sim = build_sim(512, seed=1)
        report = runner(sim)
        assert report.metrics.total.max_initiations <= 1


class TestSpreadingTimes:
    def test_push_spread_is_logarithmic(self):
        """log2 n + ln n concentration (Pittel)."""
        n = 2**13
        spreads = [uniform_push(build_sim(n, seed=s)).spread_rounds for s in range(3)]
        expected = math.log2(n) + math.log(n)
        for s in spreads:
            assert 0.6 * expected <= s <= 1.4 * expected

    def test_push_pull_faster_than_push(self):
        n = 2**13
        pp = uniform_push_pull(build_sim(n, seed=0)).spread_rounds
        p = uniform_push(build_sim(n, seed=0)).spread_rounds
        assert pp < p

    def test_spread_grows_with_n(self):
        small = uniform_push(build_sim(2**8, seed=0)).spread_rounds
        large = uniform_push(build_sim(2**14, seed=0)).spread_rounds
        assert large > small


class TestMessageAccounting:
    def test_push_messages_scale_with_schedule(self):
        """No stopping rule: Theta(log n) messages per node."""
        n = 2**10
        report = uniform_push(build_sim(n, seed=0))
        # once saturated (most of the schedule), every node pushes per round
        assert report.messages_per_node >= 0.5 * math.log2(n)

    def test_pull_responses_are_few(self):
        """PULL transmissions are O(1)/node (requests are the log n cost)."""
        n = 2**12
        report = uniform_pull(build_sim(n, seed=0))
        assert report.messages_per_node <= 2.0
        assert report.contacts_per_node > 2.0

    def test_pull_holders_stay_idle(self):
        report = uniform_pull(build_sim(256, seed=1))
        assert report.success and report.metrics.total.pushes == 0

    def test_push_has_no_pull_lane(self):
        report = uniform_push(build_sim(256, seed=1))
        assert report.success and report.metrics.total.pull_requests == 0

    def test_rumor_bits_charged(self):
        n = 256
        report = uniform_push(build_sim(n, seed=0, rumor_bits=1000))
        assert report.bits == report.messages * 1000
