"""Unit tests for the eight cluster macros (paper §3.2).

Each primitive has an exact round cost and message shape (see the table in
repro/core/primitives.py); these tests pin both, plus the semantics.
"""

import numpy as np
import pytest

from repro.core.clustering import UNCLUSTERED, Clustering
from repro.core.primitives import (
    cluster_activate,
    cluster_activate_all,
    cluster_dissolve,
    cluster_merge,
    cluster_push,
    cluster_resize,
    cluster_share_rumor,
    cluster_size,
    grow_push_round,
    unclustered_pull_round,
)
from repro.sim.delivery import NOTHING

from helpers import build_sim, manual_clustering, members_of


class TestClusterActivate:
    def test_costs_one_round(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 8)
        cluster_activate(sim, cl, 0.5)
        assert sim.metrics.rounds == 1

    def test_messages_one_flag_per_follower(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 8)
        cluster_activate(sim, cl, 0.5)
        assert sim.metrics.messages == len(cl.followers())
        assert sim.metrics.bits == len(cl.followers())  # 1-bit flags

    def test_probability_extremes(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 8)
        cluster_activate(sim, cl, 1.0)
        assert cl.active[cl.leaders()].all()
        cluster_activate(sim, cl, 0.0)
        assert not cl.active[cl.leaders()].any()

    def test_activate_all(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 8)
        cluster_activate_all(sim, cl)
        assert cl.active[cl.leaders()].all()

    def test_probability_is_respected(self):
        hits = 0
        trials = 60
        for seed in range(trials):
            sim = build_sim(64, seed=seed)
            cl = manual_clustering(sim, 64)  # one cluster
            cluster_activate(sim, cl, 0.3)
            hits += int(cl.active[cl.leaders()][0])
        assert 0.1 * trials < hits < 0.55 * trials

    def test_invalid_probability(self):
        sim = build_sim(16)
        cl = manual_clustering(sim, 4)
        with pytest.raises(ValueError):
            cluster_activate(sim, cl, 1.5)

    def test_no_clusters_idles(self):
        sim = build_sim(16)
        cl = Clustering(sim.net)
        cluster_activate(sim, cl, 0.5)
        assert sim.metrics.rounds == 1


class TestClusterSize:
    def test_costs_two_rounds(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 8)
        cluster_size(sim, cl)
        assert sim.metrics.rounds == 2

    def test_messages(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 8)
        cluster_size(sim, cl)
        assert sim.metrics.messages == 2 * len(cl.followers())

    def test_returns_sizes(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 16)
        sizes = cluster_size(sim, cl)
        assert all(sizes[leader] == 16 for leader in cl.leaders())

    def test_leader_fanin_is_cluster_size(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 16)
        cluster_size(sim, cl)
        assert sim.metrics.max_fanin == 15


class TestClusterDissolve:
    def test_small_clusters_dissolve(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 8)
        cl.set_follow(np.s_[:4], UNCLUSTERED)
        cl.set_follow(np.s_[4:8], 4)  # one cluster of 4
        cl.set_follow(4, 4)
        cl.check_invariants()
        doomed = cluster_dissolve(sim, cl, 8)
        assert 4 in doomed.tolist()
        assert (cl.follow[4:8] == UNCLUSTERED).all()

    def test_large_clusters_survive(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 8)
        doomed = cluster_dissolve(sim, cl, 8)
        assert len(doomed) == 0
        assert cl.cluster_count() == 8

    def test_costs_two_rounds(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 8)
        cluster_dissolve(sim, cl, 4)
        assert sim.metrics.rounds == 2

    def test_invalid_floor(self):
        sim = build_sim(16)
        cl = manual_clustering(sim, 4)
        with pytest.raises(ValueError):
            cluster_dissolve(sim, cl, 0)


class TestClusterResize:
    def test_splits_to_bounded_sizes(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 64)  # one giant cluster
        splits = cluster_resize(sim, cl, 8)
        assert splits == 1
        sizes = cl.sizes()[cl.leaders()]
        assert sizes.min() >= 8
        assert sizes.max() <= 15  # 2s - 1
        assert sizes.sum() == 64

    def test_small_clusters_untouched(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 8)
        splits = cluster_resize(sim, cl, 8)
        assert splits == 0
        assert cl.cluster_count() == 8

    def test_new_leader_is_chunk_max_uid(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 32)
        cluster_resize(sim, cl, 8)
        uid = sim.net.uid
        for leader in cl.leaders():
            members = members_of(cl, int(leader))
            assert uid[leader] == uid[members].max()

    def test_members_partitioned_by_uid_ranges(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 32)
        cluster_resize(sim, cl, 8)
        uid = sim.net.uid
        # uid intervals of distinct clusters must not overlap
        ranges = []
        for leader in cl.leaders():
            m = members_of(cl, int(leader))
            ranges.append((uid[m].min(), uid[m].max()))
        ranges.sort()
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 < lo2

    def test_costs_two_rounds(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 64)
        cluster_resize(sim, cl, 8)
        assert sim.metrics.rounds == 2

    def test_response_bits_scale_with_k(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 64)
        cluster_resize(sim, cl, 8)  # k = 8 new leaders
        id_bits = sim.net.sizes.id_bits
        followers = 63
        expected = followers * id_bits + followers * 8 * id_bits
        assert sim.metrics.bits == expected

    def test_preserves_active_flag(self):
        sim = build_sim(64)
        cl = manual_clustering(sim, 64)
        cl.active[0] = True
        cluster_resize(sim, cl, 8)
        assert cl.active[cl.leaders()].all()


class TestClusterPush:
    def test_costs_two_rounds(self):
        sim = build_sim(128)
        cl = manual_clustering(sim, 8)
        cluster_activate_all(sim, cl)
        rounds_before = sim.metrics.rounds
        cluster_push(sim, cl, senders=np.flatnonzero(cl.active_member_mask()))
        assert sim.metrics.rounds - rounds_before == 2

    def test_receipts_are_pushing_cluster_ids(self):
        sim = build_sim(128)
        cl = manual_clustering(sim, 8)
        cl.active[0] = True  # only cluster 0 pushes
        senders = np.flatnonzero(cl.active_member_mask())
        out = cluster_push(sim, cl, senders=senders, reduce="min")
        got = out.leader_receipt[out.leader_receipt != NOTHING]
        assert (got == 0).all()

    def test_min_reduce_prefers_smallest_uid(self):
        sim = build_sim(128)
        cl = manual_clustering(sim, 4)
        cl.active[cl.leaders()] = True
        senders = np.flatnonzero(cl.active_member_mask())
        out = cluster_push(sim, cl, senders=senders, reduce="min")
        # with every cluster pushing, nearly every leader hears several
        # IDs; receipts must be valid leader indices
        got = out.leader_receipt[cl.leaders()]
        got = got[got != NOTHING]
        assert np.isin(got, cl.leaders()).all()

    def test_invalid_reduce(self):
        sim = build_sim(16)
        cl = manual_clustering(sim, 4)
        with pytest.raises(ValueError):
            cluster_push(sim, cl, senders=np.array([0]), reduce="max")


class TestClusterMerge:
    def test_merge_moves_members(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        new_leader = np.full(32, NOTHING, dtype=np.int64)
        new_leader[8] = 0  # cluster 8 merges into cluster 0
        merged = cluster_merge(sim, cl, new_leader)
        assert merged == 1
        assert (cl.follow[8:16] == 0).all()
        assert cl.sizes()[0] == 16

    def test_costs_one_round(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        new_leader = np.full(32, NOTHING, dtype=np.int64)
        new_leader[8] = 0
        cluster_merge(sim, cl, new_leader)
        assert sim.metrics.rounds == 1

    def test_chain_merge_compressed(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        new_leader = np.full(32, NOTHING, dtype=np.int64)
        new_leader[8] = 0
        new_leader[16] = 8  # 16 -> 8 -> 0 in the same round
        cluster_merge(sim, cl, new_leader)
        assert (cl.follow[16:24] == 0).all()
        cl.check_invariants()

    def test_noop_when_no_targets(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        merged = cluster_merge(sim, cl, np.full(32, NOTHING, dtype=np.int64))
        assert merged == 0
        assert sim.metrics.rounds == 1  # the idle round still counts

    def test_messages_only_from_merging_followers(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        new_leader = np.full(32, NOTHING, dtype=np.int64)
        new_leader[8] = 0
        cluster_merge(sim, cl, new_leader)
        assert sim.metrics.messages == 7  # followers of cluster 8


class TestClusterShare:
    def test_rumor_spreads_within_cluster(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 16)
        informed = np.zeros(32, dtype=bool)
        informed[3] = True  # a follower of cluster 0
        informed = cluster_share_rumor(sim, cl, informed)
        assert informed[:16].all()
        assert not informed[16:].any()

    def test_costs_two_rounds(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 16)
        informed = np.zeros(32, dtype=bool)
        informed[0] = True
        cluster_share_rumor(sim, cl, informed)
        assert sim.metrics.rounds == 2

    def test_rumor_bits_charged(self):
        sim = build_sim(32, rumor_bits=1000)
        cl = manual_clustering(sim, 32)
        informed = np.zeros(32, dtype=bool)
        informed[0] = True  # the leader
        cluster_share_rumor(sim, cl, informed)
        # no informed follower pushes; 31 followers pull 1000 bits
        assert sim.metrics.bits == 31 * 1000

    def test_uninformed_cluster_stays_dark(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        informed = np.zeros(32, dtype=bool)
        out = cluster_share_rumor(sim, cl, informed)
        assert not out.any()
        assert sim.metrics.messages == 0

    def test_does_not_mutate_input(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 16)
        informed = np.zeros(32, dtype=bool)
        informed[3] = True
        cluster_share_rumor(sim, cl, informed)
        assert informed.sum() == 1


class TestGrowPushRound:
    def test_unclustered_adopt(self):
        sim = build_sim(256)
        cl = Clustering(sim.net)
        cl.seed_singletons(np.arange(64))
        cl.active[:64] = True
        joined = grow_push_round(sim, cl)
        assert joined > 0
        assert cl.clustered_count() == 64 + joined
        cl.check_invariants()

    def test_one_round(self):
        sim = build_sim(64)
        cl = Clustering(sim.net)
        cl.seed_singletons(np.arange(8))
        cl.active[:8] = True
        grow_push_round(sim, cl)
        assert sim.metrics.rounds == 1

    def test_active_only_filter(self):
        sim = build_sim(256)
        cl = Clustering(sim.net)
        cl.seed_singletons(np.arange(64))
        cl.active[:] = False
        joined = grow_push_round(sim, cl, active_only=True)
        assert joined == 0
        assert sim.metrics.messages == 0


class TestUnclusteredPullRound:
    def test_pullers_join(self):
        sim = build_sim(256)
        cl = manual_clustering(sim, 8)
        cl.set_follow(np.s_[128:], UNCLUSTERED)
        joined = unclustered_pull_round(sim, cl)
        assert joined > 0
        cl.check_invariants()
        # joiners follow actual leaders
        assert (cl.follow[cl.clustered_mask()] < 128).all()

    def test_unclustered_responder_gives_nothing(self):
        sim = build_sim(8)
        cl = Clustering(sim.net)  # nobody clustered
        joined = unclustered_pull_round(sim, cl)
        assert joined == 0
        assert sim.metrics.messages == 0
        assert sim.metrics.total.pull_requests == 8
