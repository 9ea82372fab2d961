"""Tests for SquareClusters (both variants) and its merge-receipt rule."""

import numpy as np
import pytest

from repro.core.clustering import Clustering
from repro.core.constants import LAPTOP
from repro.core.phases import (
    SequentialBackend,
    _recruit_inactive,
    grow_v1,
    grow_v2,
    square_v1,
    square_v2,
)
from repro.sim.dynamics import AdversitySchedule, CrashAt
from repro.sim.engine import Simulator
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.rng import make_rng

from helpers import build_sim, manual_clustering


def grown_v1(n, seed=0):
    sim = build_sim(n, seed=seed)
    cl = Clustering(sim.net)
    p = LAPTOP.cluster1(n)
    grow_v1(SequentialBackend(sim, cl), p)
    return sim, cl, p


def grown_v2(n, seed=0):
    sim = build_sim(n, seed=seed)
    cl = Clustering(sim.net)
    p = LAPTOP.cluster2(n)
    grow_v2(SequentialBackend(sim, cl), p)
    return sim, cl, p


class TestSquareV1:
    def test_reaches_target_size(self):
        n = 2**12
        sim, cl, p = grown_v1(n)
        report = square_v1(SequentialBackend(sim, cl), p)
        assert report.final_nominal_size > p.square_target
        # actual big clusters exist
        sizes = cl.sizes()[cl.leaders()]
        assert sizes.max() >= p.square_target / 4

    def test_clustered_nodes_not_lost(self):
        n = 2**12
        sim, cl, p = grown_v1(n)
        before = cl.clustered_count()
        square_v1(SequentialBackend(sim, cl), p)
        # Lemma 6: all clustered nodes remain clustered (minus dissolve of
        # sub-threshold clusters at entry).
        assert cl.clustered_count() >= 0.8 * before

    def test_iteration_budget(self):
        n = 2**12
        sim, cl, p = grown_v1(n)
        report = square_v1(SequentialBackend(sim, cl), p)
        from repro.core.constants import loglog

        assert report.iterations <= 3 * loglog(n) + 5

    def test_invariants(self):
        sim, cl, p = grown_v1(2**11)
        square_v1(SequentialBackend(sim, cl), p)
        cl.check_invariants()

    def test_history_recorded(self):
        sim, cl, p = grown_v1(2**12)
        report = square_v1(SequentialBackend(sim, cl), p)
        assert len(report.sizes_history) == report.iterations


class TestSquareV2:
    def test_cluster_sizes_grow(self):
        n = 2**13
        sim, cl, p = grown_v2(n)
        sizes_before = cl.sizes()[cl.leaders()]
        report = square_v2(SequentialBackend(sim, cl), p)
        sizes_after = cl.sizes()[cl.leaders()]
        if report.iterations > 0:
            assert sizes_after.max() > sizes_before.max()

    def test_stop_at_override(self):
        n = 2**13
        sim, cl, p = grown_v2(n)
        report = square_v2(SequentialBackend(sim, cl), p, stop_at=p.square_floor - 1)
        assert report.iterations == 0

    def test_messages_bounded(self):
        """Only the Theta(x*) clustered fraction communicates (Lemma 12)."""
        n = 2**13
        sim, cl, p = grown_v2(n)
        before = sim.metrics.messages
        square_v2(SequentialBackend(sim, cl), p)
        per_node = (sim.metrics.messages - before) / n
        assert per_node <= 6 * p.target_fraction * 10  # loose O(x*) budget

    def test_invariants(self):
        sim, cl, p = grown_v2(2**12)
        square_v2(SequentialBackend(sim, cl), p)
        cl.check_invariants()


class RecordingBackend(SequentialBackend):
    """The sequential backend, keeping what ClusterPUSH returned."""

    def cluster_push(self, act, senders, reduce):
        self.receipts = super().cluster_push(act, senders, reduce)
        return self.receipts


class TestMergeReceipts:
    """SquareClusters' recruit step: an inactive cluster merges only into
    a cluster that still stands active."""

    def test_receipt_of_a_crashed_recruiter_is_dropped(self):
        n = 64
        net = Network(n, rng=3)
        # ClusterPUSH is rounds 1 (push) and 2 (relay): the recruiter's
        # leader crashes as the relay commits, after its ID went out.
        schedule = AdversitySchedule((CrashAt(2, indices=(0,)),))
        sim = Simulator(net, make_rng(4), Metrics(n), dynamics=schedule.bind(net, make_rng(5)))
        cl = manual_clustering(sim, 8)
        cl.active[0] = True  # cluster 0 recruits, the other seven are inactive
        b = RecordingBackend(sim, cl)
        _recruit_inactive(b, np.arange(1), "any")
        assert not net.alive[0]
        _, cols, ids = b.receipts
        offered = cols[ids == 0]
        assert len(offered)  # some inactive cluster received the dead ID
        assert cl.leader_mask()[offered].all()  # ...and stayed unmerged
        assert cl.cluster_count() == 7

    def test_inactive_target_without_dynamics_raises(self):
        class StaleReceipt(SequentialBackend):
            def cluster_push(self, act, senders, reduce):
                return np.zeros(1, dtype=np.int64), np.array([8]), np.array([16])

        sim = build_sim(64)
        cl = manual_clustering(sim, 8)
        cl.active[0] = True
        with pytest.raises(RuntimeError, match="not an active cluster"):
            _recruit_inactive(StaleReceipt(sim, cl), np.arange(1), "min")
