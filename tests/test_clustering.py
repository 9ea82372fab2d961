"""Unit tests for the Clustering state structure (paper §3.1)."""

import numpy as np
import pytest

from repro.core.clustering import UNCLUSTERED, Clustering
from repro.sim.network import Network

from helpers import build_sim, manual_clustering, members_of, single_cluster


class TestBasics:
    def test_initially_all_unclustered(self):
        sim = build_sim(20)
        cl = Clustering(sim.net)
        assert cl.clustered_count() == 0
        assert cl.cluster_count() == 0
        assert len(cl.unclustered()) == 20

    def test_seed_singletons(self):
        sim = build_sim(20)
        cl = Clustering(sim.net)
        cl.seed_singletons(np.array([2, 5]))
        assert cl.cluster_count() == 2
        assert cl.leader_mask()[2] and cl.leader_mask()[5]
        assert cl.clustered_count() == 2

    def test_seed_skips_dead(self):
        sim = build_sim(20)
        sim.net.fail([2])
        cl = Clustering(sim.net)
        cl.seed_singletons(np.array([2, 5]))
        assert cl.cluster_count() == 1

    def test_masks_partition_alive_nodes(self):
        sim = build_sim(40)
        cl = manual_clustering(sim, 8)
        total = cl.leader_mask().sum() + cl.follower_mask().sum() + cl.unclustered_mask().sum()
        assert total == sim.net.alive_count

    def test_sizes(self):
        sim = build_sim(40)
        cl = manual_clustering(sim, 8)
        sizes = cl.sizes()
        for leader in cl.leaders():
            assert sizes[leader] == 8
        assert sizes[cl.followers()].sum() == 0

    def test_members_of(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        members = members_of(cl, 8)
        assert sorted(members.tolist()) == list(range(8, 16))

    def test_summary_text(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        assert "4 clusters" in cl.summary()
        assert "no clusters" in Clustering(sim.net).summary()


class TestActive:
    def test_active_member_mask(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        cl.active[8] = True  # cluster led by 8
        mask = cl.active_member_mask()
        assert mask[8:16].all()
        assert not mask[:8].any() and not mask[16:].any()


class TestDisband:
    def test_disband_unclusters_members(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        cl.disband(np.array([0]))
        assert (cl.follow[:8] == UNCLUSTERED).all()
        assert cl.cluster_count() == 3

    def test_disband_empty(self):
        sim = build_sim(16)
        cl = manual_clustering(sim, 4)
        cl.disband(np.array([], dtype=np.int64))
        assert cl.cluster_count() == 4


class TestCompress:
    def test_chain_resolution(self):
        sim = build_sim(16)
        cl = Clustering(sim.net)
        cl.set_follow(0, 0)
        cl.set_follow(1, 0)
        cl.set_follow(2, 1)  # chain 2 -> 1 -> 0
        cl.compress()
        assert cl.follow[2] == 0
        cl.check_invariants()

    def test_cycle_detected(self):
        # A 3-cycle never resolves under pointer jumping (odd permutation
        # cycles square to cycles); compress must give up loudly.
        sim = build_sim(16)
        cl = Clustering(sim.net)
        cl.set_follow(0, 1)
        cl.set_follow(1, 2)
        cl.set_follow(2, 0)
        with pytest.raises(RuntimeError):
            cl.compress()

    def test_two_cycle_degenerates_to_singletons(self):
        # Documented quirk: a 2-cycle's pointer jump makes both nodes
        # self-leaders (harmless — merge rules never create cycles).
        sim = build_sim(16)
        cl = Clustering(sim.net)
        cl.set_follow(0, 1)
        cl.set_follow(1, 0)
        cl.compress()
        assert cl.follow[0] == 0 and cl.follow[1] == 1

    def test_chain_to_unclustered_detected(self):
        sim = build_sim(16)
        cl = Clustering(sim.net)
        cl.set_follow(2, 1)  # 1 is unclustered
        with pytest.raises(RuntimeError):
            cl.compress()


class TestInvariants:
    def test_follower_of_non_leader_caught(self):
        sim = build_sim(16)
        cl = Clustering(sim.net)
        cl.set_follow(3, 7)  # 7 does not follow itself
        with pytest.raises(AssertionError):
            cl.check_invariants()

    def test_single_cluster_detection(self):
        sim = build_sim(16)
        cl = manual_clustering(sim, 16)
        assert single_cluster(cl) == 0
        cl2 = manual_clustering(sim, 8)
        assert single_cluster(cl2) is None

    def test_dead_nodes_not_counted(self):
        sim = build_sim(16)
        cl = manual_clustering(sim, 4)
        sim.net.fail([1])  # follower of cluster 0
        assert cl.clustered_count() == 15
        assert cl.sizes()[0] == 3


class TestViews:
    """``follow`` has one writer, ``set_follow``; the views derived from
    it are cached per version and handed out read-only."""

    def test_follow_write_outside_the_writer_raises(self):
        cl = manual_clustering(build_sim(16), 4)
        with pytest.raises(ValueError, match="read-only"):
            cl.follow[3] = 0
        with pytest.raises(AttributeError):
            cl.follow = np.zeros(16, dtype=np.int64)
        assert cl.follow[3] == 0  # untouched by the refused writes

    def test_views_are_read_only(self):
        cl = manual_clustering(build_sim(16), 4)
        cl.set_follow(15, UNCLUSTERED)
        for view in (
            cl.clustered_mask(),
            cl.unclustered_mask(),
            cl.leader_mask(),
            cl.follower_mask(),
            cl.leaders(),
            cl.followers(),
            cl.unclustered(),
            cl.sizes(),
        ):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = view[-1]

    def test_views_are_derived_once_per_version(self):
        cl = manual_clustering(build_sim(16), 4)
        version, leaders = cl.version, cl.leaders()
        assert cl.leaders() is leaders and cl.version == version
        cl.set_follow(np.array([5, 6, 7]), UNCLUSTERED)
        assert cl.version == version + 1
        assert cl.leaders() is not leaders
        assert cl.unclustered().tolist() == [5, 6, 7]
        assert cl.sizes()[4] == 1 and cl.clustered_count() == 13

    def test_a_liveness_change_starts_a_new_version(self):
        sim = build_sim(16)
        cl = manual_clustering(sim, 4)
        version, sizes = cl.version, cl.sizes()
        sim.net.fail([1])  # a follower: follow is untouched, the views move
        assert cl.sizes()[0] == 3 and 1 not in cl.followers()
        assert cl.version > version and cl.sizes() is not sizes
        sim.net.fail([4])  # a leader: its three followers drop out
        assert cl.leaders().tolist() == [0, 8, 12]
        assert cl.unclustered().tolist() == [5, 6, 7]
        assert cl.follow[5] == UNCLUSTERED
