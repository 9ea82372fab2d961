"""Statistical validation of the batched (R, n) cluster pipeline.

The vector cluster runners (:mod:`repro.sim.batch_cluster`) are RNG-
stream *in*compatible with the sequential engines by design — the
fingerprint corpus stays on the reset engine — so this suite validates
them the way the whp harness validates the paper's claims: agreement
with the reset engine at the distribution level, the w.h.p. envelopes
on the batched outcomes themselves, per-seed determinism, and
bit-identical summaries from the sharded executor at any worker count.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cli import main
from repro.core.broadcast import broadcast, run_replications
from repro.registry import get_algorithm
from repro.sim.batch_cluster import batched_cluster1, batched_cluster2
from repro.sim.rng import make_rng
from repro.sim.topology import ErdosRenyiGnp, RandomRegular, Ring

N = 1024
LOG2N = math.log2(N)

#: Same envelope constants as tests/test_whp_bounds.py.
C_ROUNDS = 8.0
C_MSGS = 8.0


class TestBatchedOutcome:
    def test_direct_runner_shapes_and_success(self):
        out = batched_cluster2(256, 7, make_rng(0))
        assert out.algorithm == "cluster2" and out.reps == 7
        for arr in (out.rounds, out.completion_round, out.messages, out.bits):
            assert arr.shape == (7,)
        assert out.success.all()
        # Cluster runners run a fixed phase schedule, never an early-
        # completion watch: spread falls back to the scheduled rounds.
        assert (out.completion_round == -1).all()
        assert (out.informed_counts == 256).all()
        assert (out.messages > 0).all() and (out.bits > out.messages).all()

    def test_runners_registered_on_specs(self):
        assert get_algorithm("cluster1").batch_runner_for("broadcast") is batched_cluster1
        assert get_algorithm("cluster2").batch_runner_for("broadcast") is batched_cluster2

    def test_auto_engine_resolves_vector_for_clusters(self):
        for algorithm in ("cluster1", "cluster2"):
            s = run_replications(256, algorithm, reps=2)
            assert s.engine == "vector"

    def test_same_seed_is_deterministic(self):
        a = run_replications(512, "cluster2", reps=6, base_seed=17, engine="vector")
        b = run_replications(512, "cluster2", reps=6, base_seed=17, engine="vector")
        assert a.successes == b.successes
        for name in ("spread_rounds", "messages_per_node", "bits_per_node"):
            assert a.metrics[name].mean == b.metrics[name].mean
            assert a.metrics[name].variance == b.metrics[name].variance

    def test_chunked_execution_covers_all_reps(self):
        # Each chunk derives its own stream, so chunking shifts the draws
        # (statistics, not fingerprints) — but every replication runs.
        split = run_replications(
            256, "cluster2", reps=8, base_seed=5, engine="vector", batch_elems=3 * 256
        )
        assert split.reps == 8 and split.success_rate == 1.0
        assert split.spread_rounds.count == 8


class TestStatisticalEquivalence:
    """Distribution-level agreement with the reset engine (the engines
    draw different RNG streams, so equality is statistical, not
    bitwise — same shapes and constants as the whp harness)."""

    @pytest.mark.parametrize("algorithm", ["cluster1", "cluster2"])
    def test_vector_matches_reset_distribution(self, algorithm):
        vec = run_replications(N, algorithm, reps=40, base_seed=0, engine="vector")
        ref = run_replications(N, algorithm, reps=24, base_seed=1, engine="reset")
        assert vec.success_rate == 1.0 and ref.success_rate == 1.0
        for metric, tol in [("spread_rounds", 0.15), ("messages_per_node", 0.15)]:
            v, r = vec.metrics[metric].mean, ref.metrics[metric].mean
            assert abs(v - r) <= tol * r, f"{algorithm} {metric}: vector {v} vs reset {r}"

    def test_vector_cluster2_inside_whp_envelopes(self):
        s = run_replications(N, "cluster2", reps=40, base_seed=2, engine="vector")
        assert s.success_rate == 1.0
        assert s.spread_rounds.quantile(0.9) <= C_ROUNDS * LOG2N
        assert s.spread_rounds.minimum >= LOG2N - 1
        assert s.messages_per_node.mean <= C_MSGS * math.log2(LOG2N)


class TestRestrictedTopology:
    def test_cluster2_accepts_expander_topologies(self):
        # Ring / random-regular / gnp all ride the vector engine (the
        # runners advertise supports_topology under global addressing).
        for topology in (Ring(k=4), RandomRegular(d=8), ErdosRenyiGnp(p=0.05)):
            s = run_replications(
                256, "cluster2", reps=3, topology=topology, engine="vector"
            )
            assert s.engine == "vector" and s.reps == 3

    def test_cluster2_random_regular_matches_reset(self):
        # On an expander the pipeline still completes; vector and reset
        # agree at the distribution level.
        kw = dict(topology=RandomRegular(d=16))
        vec = run_replications(512, "cluster2", reps=24, base_seed=3, engine="vector", **kw)
        ref = run_replications(512, "cluster2", reps=12, base_seed=4, engine="reset", **kw)
        assert vec.success_rate == 1.0 and ref.success_rate == 1.0
        v, r = vec.spread_rounds.mean, ref.spread_rounds.mean
        assert abs(v - r) <= 0.2 * r, f"spread_rounds: vector {v} vs reset {r}"


class TestCluster2SizeFloor:
    """Cluster2's square phase opens by dissolving every cluster smaller
    than ``max(2, square_floor // 2)`` (4 on every profile), so below
    that n no node could stay clustered and every run would fail.  Each
    entry point refuses such an n with a one-line config error."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("engine", ["reset", "vector"])
    def test_replications_below_floor_raise(self, n, engine):
        with pytest.raises(ValueError, match="cluster2 needs n >= 4"):
            run_replications(n, "cluster2", reps=3, engine=engine)

    @pytest.mark.parametrize("n", [2, 3])
    def test_single_run_and_task_transport_below_floor_raise(self, n):
        with pytest.raises(ValueError, match="cluster2 needs n >= 4"):
            broadcast(n, "cluster2", seed=1)
        with pytest.raises(ValueError, match="cluster2 needs n >= 4"):
            broadcast(n, "cluster2", seed=1, task="push-sum")
        with pytest.raises(ValueError, match="cluster2 needs n >= 4"):
            batched_cluster2(n, 2, make_rng(0))

    def test_cli_reports_config_error(self, capsys):
        assert main(["run", "--algorithm", "cluster2", "--n", "3"]) == 2
        assert "error: cluster2 needs n >= 4" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["reset", "vector"])
    def test_smallest_valid_n_succeeds(self, engine):
        s = run_replications(4, "cluster2", reps=20, base_seed=0, engine=engine)
        assert s.engine == engine and s.success_rate == 1.0


class TestShardedIdentity:
    """workers= fans the serial chunk plan across a process pool; the
    merged summary must not depend on the worker count."""

    @staticmethod
    def _scalars(s):
        base = [s.reps, s.successes, s.engine]
        for name in sorted(s.metrics):
            m = s.metrics[name]
            base += [m.count, m.mean, m.variance, m.minimum, m.maximum]
        return base

    def test_cluster2_workers_identity(self):
        kw = dict(reps=10, base_seed=7, engine="vector", batch_elems=3 * 256)
        one = run_replications(256, "cluster2", workers=1, **kw)
        two = run_replications(256, "cluster2", workers=2, **kw)
        assert self._scalars(one) == self._scalars(two)

    def test_push_sum_workers_identity(self):
        kw = dict(
            reps=10, base_seed=8, task="push-sum", engine="vector",
            batch_elems=3 * 256,
        )
        one = run_replications(256, "push-pull", workers=1, **kw)
        two = run_replications(256, "push-pull", workers=2, **kw)
        assert self._scalars(one) == self._scalars(two)
        assert one.metrics["task_error"].mean == two.metrics["task_error"].mean

    @pytest.mark.parametrize(
        "n, algorithm, reps, engine",
        [(4096, "cluster2", 50, "vector"), (1024, "push-pull", 40, "reset")],
    )
    def test_sharded_summary_equals_serial(self, n, algorithm, reps, engine):
        # Configurations where a float running mean and a float shard
        # merge round differently in the last digit.
        runs = [
            run_replications(n, algorithm, reps=reps, engine=engine, workers=w)
            for w in (None, 1, 2)
        ]
        assert self._scalars(runs[0]) == self._scalars(runs[1])
        assert self._scalars(runs[0]) == self._scalars(runs[2])
