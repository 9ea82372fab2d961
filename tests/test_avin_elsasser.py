"""Tests for the Avin-Elsässer reconstruction (Theorem 1 profile)."""

import math

import pytest

from repro.baselines.avin_elsasser import (
    ae_round_estimate,
    avin_elsasser,
    default_capacity,
)
from repro.core.broadcast import broadcast

from helpers import build_sim


class TestCorrectness:
    @pytest.mark.parametrize("n", [512, 4096])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_everyone_informed(self, n, seed):
        report = avin_elsasser(build_sim(n, seed=seed))
        assert report.success

    def test_model_respected(self):
        report = avin_elsasser(build_sim(1024, seed=0))
        assert report.metrics.total.max_initiations <= 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            avin_elsasser(build_sim(256), message_capacity=0)


class TestTradeoff:
    """The reconstruction's point: capacity k controls the round count,
    interpolating between Theta(log n) (k=1) and squaring (large k)."""

    def test_more_capacity_fewer_rounds(self):
        n = 2**14
        r1 = avin_elsasser(build_sim(n, seed=3), message_capacity=1).rounds
        r6 = avin_elsasser(build_sim(n, seed=3), message_capacity=6).rounds
        assert r6 < r1

    def test_default_capacity_is_sqrt_log(self):
        assert default_capacity(2**16) == math.ceil(math.sqrt(16))

    def test_round_estimate_shape(self):
        # k + L/k, minimised near k = sqrt(L)
        assert ae_round_estimate(2**16) == 4 + 4

    def test_rounds_between_cluster_and_push(self):
        """Theorem 1 vs Theorem 2: AE sits between plain gossip and the
        optimal algorithm in growth iterations (measured via its capped
        growth phase length)."""
        n = 2**14
        report = avin_elsasser(build_sim(n, seed=0))
        grow_rounds = report.metrics.phases["ae-capped-growth"].rounds
        # the capped-growth loop runs ~ (log n - loglog n)/k iterations of
        # ~9 engine rounds; far below a log2 n iteration count
        assert grow_rounds <= 9 * (2 + math.log2(n) / default_capacity(n))


class TestExtras:
    def test_extras_record_capacity(self):
        report = avin_elsasser(build_sim(512, seed=0), message_capacity=3)
        assert report.extras["message_capacity"] == 3
        assert report.extras["growth_cap"] == 8


class TestProfile:
    def test_paper_profile_changes_the_run(self):
        """Its initial clusters grow with the profile's Cluster1 constants,
        so the paper profile moves its run as it moves Cluster1's."""
        laptop = broadcast(1024, "avin-elsasser", seed=0)
        paper = broadcast(1024, "avin-elsasser", seed=0, profile="paper")
        assert (paper.rounds, paper.messages) != (laptop.rounds, laptop.messages)
