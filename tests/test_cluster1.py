"""End-to-end tests for Cluster1 (Theorem 9)."""

import pytest

from repro.core.cluster1 import cluster1
from repro.core.constants import LAPTOP, loglog
from repro.obs.telemetry import Telemetry

from helpers import build_sim


class TestCorrectness:
    @pytest.mark.parametrize("n", [256, 1024, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_everyone_informed(self, n, seed):
        sim = build_sim(n, seed=seed)
        report = cluster1(sim, source=0)
        assert report.success, f"informed only {report.informed_fraction:.4f}"

    def test_source_position_irrelevant(self):
        sim = build_sim(1024, seed=7)
        report = cluster1(sim, source=777)
        assert report.success

    def test_single_final_cluster(self):
        sim = build_sim(2048, seed=3)
        report = cluster1(sim)
        assert report.extras["final_clusters"] == 1

    def test_model_validated(self):
        # The engine's model check ran on every round, and the metric
        # agrees: no node ever initiated twice.
        sim = build_sim(1024, seed=1)
        report = cluster1(sim)
        assert report.metrics.total.max_initiations <= 1


class TestComplexity:
    def test_rounds_are_loglog_scale(self):
        # generous constant: every phase is Theta(log log n) with our
        # per-primitive round constants (<= ~8 engine rounds/iteration).
        for n in (512, 4096):
            sim = build_sim(n, seed=0)
            report = cluster1(sim)
            assert report.rounds <= 40 * loglog(n) + 20

    def test_square_iterations_loglog(self):
        sim = build_sim(4096, seed=0)
        report = cluster1(sim)
        assert report.extras["square_iterations"] <= 2 * loglog(4096) + 3

    def test_phases_present(self):
        sim = build_sim(1024, seed=0)
        report = cluster1(sim)
        for phase in ("grow", "square", "merge-all", "pull", "share"):
            assert phase in report.metrics.phases, phase

    def test_bits_dominated_by_rumor_term(self):
        # bit-complexity: O(n log n + n b); with b >> log n the share
        # phase dominates per-node cost at most a constant times b.
        n = 1024
        sim = build_sim(n, seed=0, rumor_bits=50_000)
        report = cluster1(sim)
        share_bits = report.metrics.phases["share"].bits
        assert share_bits >= (n - 1) * 50_000 * 0.9
        assert report.bits <= share_bits + 200 * n * sim.net.sizes.id_bits


class TestDeterminism:
    def test_same_seed_same_run(self):
        a = cluster1(build_sim(512, seed=9))
        b = cluster1(build_sim(512, seed=9))
        assert a.rounds == b.rounds
        assert a.messages == b.messages
        assert (a.informed == b.informed).all()

    def test_trace_collects_phases(self):
        sim = build_sim(512, seed=1)
        sim.telemetry = Telemetry().begin_run({})
        cluster1(sim)
        kinds = [e["kind"] for e in sim.telemetry.events]
        assert "grow.push" in kinds
        assert kinds[-1] == "done"


class TestParamsOverride:
    def test_explicit_params(self):
        n = 512
        params = LAPTOP.cluster1(n)
        sim = build_sim(n, seed=2)
        report = cluster1(sim, params=params)
        assert report.success
