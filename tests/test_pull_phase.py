"""Tests for UnclusteredNodesPull and BoundedClusterPush."""

import numpy as np

from repro.core.clustering import UNCLUSTERED, Clustering
from repro.core.phases import SequentialBackend, bounded_push, pull
from repro.obs.telemetry import Telemetry

from helpers import build_sim, manual_clustering


class TestUnclusteredPull:
    def test_everyone_joins(self):
        sim = build_sim(2048)
        cl = manual_clustering(sim, 2048)  # one cluster...
        cl.set_follow(np.s_[1024:], UNCLUSTERED)  # ...but half unclustered
        remaining = pull(SequentialBackend(sim, cl), rounds=8)
        assert remaining == 0
        assert cl.clustered_count() == 2048

    def test_squaring_decay(self):
        """Lemma 8: the unclustered fraction roughly squares per round."""
        n = 2**14
        sim = build_sim(n)
        cl = manual_clustering(sim, n)
        k = n // 10  # 10% unclustered
        cl.set_follow(np.s_[-k:], UNCLUSTERED)
        sim.telemetry = Telemetry().begin_run({})
        pull(SequentialBackend(sim, cl), rounds=10)
        fracs = [k / n] + [
            e["data"]["unclustered"] / n
            for e in sim.telemetry.events
            if e["kind"] == "pull.round"
        ]
        # each round: x' <= 2x^2 with slack while counts are large
        for x, x_next in zip(fracs, fracs[1:]):
            if x * n >= 64:
                assert x_next <= 3 * x * x

    def test_stops_early_when_none_left(self):
        sim = build_sim(256)
        cl = manual_clustering(sim, 256)
        pull(SequentialBackend(sim, cl), rounds=50)
        assert sim.metrics.rounds < 50

    def test_resize_interleave_caps_sizes(self):
        sim = build_sim(1024)
        cl = manual_clustering(sim, 16)
        cl.set_follow(np.s_[512:], UNCLUSTERED)
        pull(SequentialBackend(sim, cl), rounds=8, resize_to=16)
        sizes = cl.sizes()[cl.leaders()]
        assert sizes.max() <= 31


class TestBoundedClusterPush:
    def test_giant_cluster_expands(self):
        n = 2**13
        sim = build_sim(n)
        cl = manual_clustering(sim, 16)
        # cluster only ~12%: emulate cluster2's state after merge-all by
        # keeping one cluster and unclustering the rest
        cl.set_follow(np.s_[n // 8 :], UNCLUSTERED)
        cl.set_follow(np.s_[: n // 8], 0)
        cl.check_invariants()
        before = cl.clustered_count()
        bounded_push(SequentialBackend(sim, cl), growth_stop=1.1, rounds_cap=10)
        after = cl.clustered_count()
        assert after > 0.5 * n > before

    def test_deactivates_on_stall(self):
        n = 2048
        sim = build_sim(n)
        cl = manual_clustering(sim, n)  # everyone already clustered
        bounded_push(SequentialBackend(sim, cl), growth_stop=1.1, rounds_cap=10)
        # no growth possible -> stalls after the first check
        assert sim.metrics.rounds <= 8

    def test_resize_keeps_leader_fanin_bounded(self):
        n = 2**12
        sim = build_sim(n)
        cl = manual_clustering(sim, 8)
        cl.set_follow(np.s_[n // 4 :], UNCLUSTERED)
        bounded_push(
            SequentialBackend(sim, cl), growth_stop=1.1, rounds_cap=12, resize_to=16
        )
        sizes = cl.sizes()[cl.leaders()]
        assert sizes.max() <= 47  # 2*resize_to - 1 plus one round of joins

    def test_message_total_linear(self):
        """Lemma 13: the geometric growth keeps messages O(n)."""
        n = 2**13
        sim = build_sim(n)
        cl = manual_clustering(sim, 16)
        cl.set_follow(np.s_[n // 8 :], UNCLUSTERED)
        cl.set_follow(np.s_[: n // 8], 0)
        bounded_push(SequentialBackend(sim, cl), growth_stop=1.1, rounds_cap=12)
        assert sim.metrics.messages <= 12 * n
