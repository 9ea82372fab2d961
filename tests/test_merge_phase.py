"""Tests for MergeAllClusters and MergeClusters(Δ)."""

import numpy as np

from repro.core.clustering import Clustering
from repro.core.constants import LAPTOP
from repro.core.cluster3 import merge_to_delta_clusters
from repro.core.phases import SequentialBackend, merge_all

from helpers import build_sim, manual_clustering, single_cluster


class TestMergeAll:
    def test_coalesces_to_one_cluster(self):
        sim = build_sim(1024)
        cl = manual_clustering(sim, 32)  # 32 clusters of 32
        merge_all(SequentialBackend(sim, cl), reps=4)
        assert cl.cluster_count() == 1

    def test_survivor_is_smallest_uid(self):
        sim = build_sim(512)
        cl = manual_clustering(sim, 32)
        leaders_before = cl.leaders()
        min_leader = sim.net.min_uid_index(leaders_before)
        merge_all(SequentialBackend(sim, cl), reps=4)
        assert single_cluster(cl) == min_leader

    def test_two_reps_usually_suffice(self):
        wins = 0
        for seed in range(5):
            sim = build_sim(1024, seed=seed)
            cl = manual_clustering(sim, 64)
            used = merge_all(SequentialBackend(sim, cl), reps=4)
            wins += used <= 2
        assert wins >= 3  # w.h.p. claim, empirically most seeds

    def test_single_cluster_noop_fast(self):
        sim = build_sim(256)
        cl = manual_clustering(sim, 256)
        used = merge_all(SequentialBackend(sim, cl), reps=4)
        assert used == 2  # the mandated two repetitions, no more
        assert cl.cluster_count() == 1

    def test_invariants(self):
        sim = build_sim(512)
        cl = manual_clustering(sim, 16)
        merge_all(SequentialBackend(sim, cl))
        cl.check_invariants()

    def test_phase_recorded(self):
        sim = build_sim(256)
        cl = manual_clustering(sim, 16)
        merge_all(SequentialBackend(sim, cl))
        assert "merge-all" in sim.metrics.phases


class TestMergeDelta:
    def test_clusters_grow_toward_target(self):
        # Non-degenerate regime needs target_size >= 10 * s (the paper's
        # activation 10s/(Δ/C'') must be < 1): delta=1024 -> target 128.
        n = 8192
        sim = build_sim(n)
        cl = manual_clustering(sim, 4)  # 2048 clusters of 4
        params = LAPTOP.cluster3(n, 1024)
        merge_to_delta_clusters(sim, cl, params, current_size=4)
        sizes = cl.sizes()[cl.leaders()]
        assert sizes.max() > 4
        assert cl.cluster_count() < 2048

    def test_degenerate_activation_is_noop(self):
        # When 10*s exceeds the target the coin is always heads: every
        # cluster activates and nobody merges (documented degeneracy —
        # BoundedClusterPush then does the growing).
        n = 2048
        sim = build_sim(n)
        cl = manual_clustering(sim, 8)
        merge_to_delta_clusters(sim, cl, LAPTOP.cluster3(n, 256), current_size=8)
        assert cl.cluster_count() == 256

    def test_all_nodes_stay_clustered(self):
        n = 8192
        sim = build_sim(n)
        cl = manual_clustering(sim, 4)
        before = cl.clustered_count()
        merge_to_delta_clusters(sim, cl, LAPTOP.cluster3(n, 1024), current_size=4)
        assert cl.clustered_count() == before

    def test_invariants(self):
        sim = build_sim(4096)
        cl = manual_clustering(sim, 4)
        merge_to_delta_clusters(sim, cl, LAPTOP.cluster3(4096, 512), current_size=4)
        cl.check_invariants()
