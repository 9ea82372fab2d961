"""Tests for GrowInitialClusters (both variants)."""

import numpy as np
import pytest

from repro.core.clustering import Clustering
from repro.core.constants import LAPTOP
from repro.core.phases import SequentialBackend, grow_v1, grow_v2
from repro.obs.telemetry import Telemetry

from helpers import build_sim


class TestSeeding:
    def test_seed_count_concentrates(self):
        sim = build_sim(4096)
        cl = Clustering(sim.net)
        seeds = SequentialBackend(sim, cl).seed_singletons(1 / 64)
        assert 30 <= seeds <= 110  # mean 64

    def test_seeds_are_active_singletons(self):
        sim = build_sim(256)
        cl = Clustering(sim.net)
        SequentialBackend(sim, cl).seed_singletons(0.1)
        leaders = cl.leaders()
        assert cl.active[leaders].all()
        assert (cl.sizes()[leaders] == 1).all()

    def test_zero_seeds_fallback(self):
        sim = build_sim(16)
        cl = Clustering(sim.net)
        # Tiny prob: fallback guarantees at least one seed.
        seeds = SequentialBackend(sim, cl).seed_singletons(1e-12)
        assert seeds >= 1 or cl.cluster_count() >= 1

    def test_invalid_prob(self):
        sim = build_sim(16)
        cl = Clustering(sim.net)
        with pytest.raises(ValueError):
            SequentialBackend(sim, cl).seed_singletons(0.0)


class TestGrowV1:
    def test_most_nodes_clustered(self):
        sim = build_sim(4096)
        cl = Clustering(sim.net)
        grow_v1(SequentialBackend(sim, cl), LAPTOP.cluster1(4096))
        assert cl.clustered_count() >= 0.9 * 4096  # Lemma 5

    def test_round_budget(self):
        n = 4096
        sim = build_sim(n)
        cl = Clustering(sim.net)
        p = LAPTOP.cluster1(n)
        grow_v1(SequentialBackend(sim, cl), p)
        assert sim.metrics.rounds == p.grow_rounds  # 1 round per push

    def test_phase_label(self):
        sim = build_sim(512)
        cl = Clustering(sim.net)
        grow_v1(SequentialBackend(sim, cl), LAPTOP.cluster1(512))
        assert "grow" in sim.metrics.phases

    def test_trace_events(self):
        sim = build_sim(512)
        cl = Clustering(sim.net)
        sim.telemetry = Telemetry().begin_run({})
        grow_v1(SequentialBackend(sim, cl), LAPTOP.cluster1(512))
        kinds = [e["kind"] for e in sim.telemetry.events]
        assert kinds[0] == "grow.seeded"
        assert "grow.push" in kinds

    def test_invariants_hold(self):
        sim = build_sim(1024)
        cl = Clustering(sim.net)
        grow_v1(SequentialBackend(sim, cl), LAPTOP.cluster1(1024))
        cl.check_invariants()


class TestGrowV2:
    def test_clustered_fraction_limited(self):
        """Lemma 11's point: v2 clusters only a Theta(x*) fraction."""
        n = 2**13
        sim = build_sim(n)
        cl = Clustering(sim.net)
        p = LAPTOP.cluster2(n)
        grow_v2(SequentialBackend(sim, cl), p)
        frac = cl.clustered_count() / n
        assert 0.02 <= frac <= 4 * p.target_fraction

    def test_message_budget(self):
        """v2's point: only the Theta(x*) clustered fraction transmits, so
        grow costs O(x* * n * log log n) messages (PAPER: o(n))."""
        n = 2**12
        sim = build_sim(n, seed=1)
        cl = Clustering(sim.net)
        p = LAPTOP.cluster2(n)
        grow_v2(SequentialBackend(sim, cl), p)
        budget = 5 * p.target_fraction * n * p.grow_rounds_cap
        assert sim.metrics.messages <= budget

    def test_all_deactivated_at_end(self):
        n = 2**12
        sim = build_sim(n)
        cl = Clustering(sim.net)
        grow_v2(SequentialBackend(sim, cl), LAPTOP.cluster2(n))
        assert not cl.active[cl.leaders()].any()

    def test_no_cluster_runs_away(self):
        n = 2**12
        sim = build_sim(n)
        cl = Clustering(sim.net)
        p = LAPTOP.cluster2(n)
        grow_v2(SequentialBackend(sim, cl), p)
        sizes = cl.sizes()[cl.leaders()]
        assert sizes.max() <= 4 * p.big_size  # resize keeps clusters tame

    def test_invariants_hold(self):
        sim = build_sim(2048)
        cl = Clustering(sim.net)
        grow_v2(SequentialBackend(sim, cl), LAPTOP.cluster2(2048))
        cl.check_invariants()
