"""Tests for the scale tier: network reset, the replication executors,
streaming aggregation, and the buffer pool's exact-size views."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.analysis.runner import RunSpec, execute, replicate_spec, replication_sweep
from repro.analysis.stats import ReplicationSummary, StreamingSummary, summarize
from repro.core.broadcast import (
    REPLICATION_ENGINES,
    ReplicationEngine,
    broadcast,
    report_scalars,
    run_replications,
)
from repro.sim.batch import batch_size, lean_index_dtype, random_targets_batch
from repro.sim.buffers import BufferPool
from repro.sim.ids import IdSpace
from repro.sim.network import Network
from repro.sim.rng import make_rng


def _fingerprint(report):
    return (
        report.rounds,
        report.messages,
        report.bits,
        report.max_fanin,
        report.informed.tobytes(),
        report.alive.tobytes(),
    )


# ----------------------------------------------------------------------
# Memory-lean substrate: vectorised uid assignment, reset, index dtypes
# ----------------------------------------------------------------------


class TestVectorisedAssign:
    @pytest.mark.parametrize("n,exponent", [(2, 3), (16, 1), (100, 2), (4096, 3)])
    def test_bit_identical_to_reference(self, n, exponent):
        space = IdSpace(n, exponent)
        for seed in range(3):
            fast = space.assign(make_rng(seed))
            slow = space.assign_reference(make_rng(seed))
            assert (fast == slow).all()

    def test_out_reuses_allocation(self):
        space = IdSpace(512, 3)
        out = np.empty(512, dtype=np.int64)
        result = space.assign(make_rng(9), out=out)
        assert result is out
        assert (out == space.assign(make_rng(9))).all()

    def test_out_shape_validated(self):
        with pytest.raises(ValueError, match="int64 array"):
            IdSpace(16, 3).assign(make_rng(0), out=np.empty(8, dtype=np.int64))


class TestNetworkReset:
    def test_reset_equals_fresh_construction(self):
        net = Network(256, rng=0)
        net.fail([1, 2, 3])
        net.reset(rng=42)
        fresh = Network(256, rng=42)
        assert (net.uid == fresh.uid).all()
        assert net.alive.all()

    def test_reset_reuses_allocations_and_bumps_epoch(self):
        net = Network(128, rng=0)
        uid_buf, alive_buf = net.uid, net.alive
        epoch = net.liveness_epoch
        net.alive_indices()  # populate the cache
        net.reset(rng=1)
        assert net.uid is uid_buf and net.alive is alive_buf
        assert net.liveness_epoch > epoch
        assert len(net.alive_indices()) == 128  # cache correctly rebuilt

    def test_index_arrays_are_int64(self):
        net = Network(1024, rng=0)
        assert net.alive_indices().dtype == np.int64
        assert net.random_targets(10, make_rng(0)).dtype == np.int64

    def test_random_targets_dtype_invariant(self):
        """The targets are the int64 draws themselves, shifted past each
        caller."""
        net = Network(1024, rng=0)
        srcs = np.arange(64)
        want = make_rng(5).integers(0, 1023, size=64, dtype=np.int64)
        want += want >= srcs
        assert (net.random_targets(64, make_rng(5), exclude=srcs) == want).all()

    def test_lean_index_dtype_widens_past_int32(self):
        assert lean_index_dtype(2**31 - 1) == np.dtype(np.int32)
        assert lean_index_dtype(2**31) == np.dtype(np.int64)


# ----------------------------------------------------------------------
# Buffer pool: exact-size views
# ----------------------------------------------------------------------


class TestBufferPool:
    def test_one_class_behind_every_import_path(self):
        import repro
        import repro.sim

        assert repro.BufferPool is repro.sim.BufferPool is BufferPool

    def test_exact_size_views_grow_and_reuse(self):
        pool = BufferPool()
        a = pool.take("x", 10)
        assert len(a) == 10
        b = pool.take("x", 4)
        assert len(b) == 4 and b.base is a.base  # same backing array
        c = pool.take("x", 100)
        assert len(c) == 100  # grown


# ----------------------------------------------------------------------
# Replication engines
# ----------------------------------------------------------------------


class TestResetEngine:
    @pytest.mark.parametrize("algorithm", ["push-pull", "cluster2"])
    def test_bit_identical_to_broadcast_per_seed(self, algorithm):
        engine = ReplicationEngine(512, algorithm)
        for seed in (0, 5, 11):
            assert _fingerprint(engine.run(seed)) == _fingerprint(
                broadcast(512, algorithm, seed=seed)
            )

    def test_bit_identical_under_schedule_and_failures(self):
        engine = ReplicationEngine(
            256, "push-pull", failures=20, source=None, schedule="loss:0.05"
        )
        for seed in (1, 2):
            want = broadcast(
                256,
                "push-pull",
                seed=seed,
                failures=20,
                source=None,
                schedule="loss:0.05",
            )
            assert _fingerprint(engine.run(seed)) == _fingerprint(want)

    def test_network_allocation_is_reused(self):
        engine = ReplicationEngine(128, "push-pull")
        engine.run(0)
        net = engine._net
        engine.run(1)
        assert engine._net is net


class TestVectorEngine:
    def test_deterministic(self):
        a = run_replications(512, "push-pull", reps=40, engine="vector")
        b = run_replications(512, "push-pull", reps=40, engine="vector")
        assert a.row() == b.row()

    def test_chunked_execution_covers_all_reps(self):
        s = run_replications(
            256, "push-pull", reps=23, engine="vector", batch_elems=256 * 4
        )
        assert s.reps == 23
        assert s.success_rate == 1.0

    def test_batch_size_floors_at_one(self):
        assert batch_size(2**20, 100, max_elems=2**10) == 1
        assert batch_size(256, 100, max_elems=2**22) == 100

    def test_batch_size_weights_explicit_budget_by_element_width(self):
        # Regression: elements_per_node used to be dropped whenever the
        # caller passed max_elems explicitly, so a k-rumor batch at k=64
        # was sized as if its per-node state were one element wide —
        # 64x over budget.
        k = 64
        n = 1024
        budget = 4 * n * k  # room for exactly four (n, k) slabs
        assert batch_size(n, 100, max_elems=budget, elements_per_node=k) == 4
        # Unweighted callers are unaffected.
        assert batch_size(n, 100, max_elems=budget) == 100

    def test_statistically_equivalent_to_sequential(self):
        vec = run_replications(512, "push-pull", reps=80, engine="vector")
        seq = run_replications(512, "push-pull", reps=80, engine="reset")
        assert abs(vec.spread_rounds.mean - seq.spread_rounds.mean) < 1.5
        assert abs(
            vec.messages_per_node.mean - seq.messages_per_node.mean
        ) < 0.15 * seq.messages_per_node.mean
        assert vec.rounds.mean == seq.rounds.mean  # identical fixed schedule

    def test_no_self_calls_in_batched_targets(self):
        targets = random_targets_batch(make_rng(0), reps=20, n=50)
        assert (targets != np.arange(50)[None, :]).all()
        assert targets.min() >= 0 and targets.max() < 50

    def test_unavailable_for_schedules_and_unbatched_algorithms(self):
        with pytest.raises(ValueError, match="vector engine unavailable"):
            run_replications(256, "push", reps=2, engine="vector")
        with pytest.raises(ValueError, match="vector engine unavailable"):
            run_replications(
                256, "push-pull", reps=2, engine="vector", schedule="loss:0.1"
            )
        # auto falls back to the reset engine in both cases.
        assert run_replications(256, "push", reps=2).engine == "reset"
        assert (
            run_replications(256, "push-pull", reps=2, schedule="loss:0.1").engine
            == "reset"
        )

    def test_auto_prefers_vector_when_eligible(self):
        assert run_replications(256, "push-pull", reps=2).engine == "vector"
        # Since the cluster pipeline gained batch runners, auto resolves
        # to vector for the paper's algorithms too.
        assert run_replications(256, "cluster2", reps=2).engine == "vector"


class TestReplicationsMatchBroadcast:
    @pytest.mark.parametrize("task", ["broadcast", "min-max"])
    def test_rep_i_is_broadcast_at_base_seed_plus_i(self, task):
        rows = []
        run_replications(
            256,
            "push-pull",
            reps=4,
            base_seed=40,
            engine="reset",
            task=task,
            consume=rows.append,
        )
        assert [row["seed"] for row in rows] == [40, 41, 42, 43]
        for row in rows:
            report = broadcast(256, "push-pull", seed=row["seed"], task=task)
            want = report_scalars(report)
            assert {k: row[k] for k in want} == want


# ----------------------------------------------------------------------
# Streaming aggregation
# ----------------------------------------------------------------------


class TestStreamingSummary:
    def test_matches_batch_summarize(self):
        rng = random.Random(7)
        values = [rng.gauss(10, 3) for _ in range(500)]
        stream = StreamingSummary()
        for v in values:
            stream.push(v)
        batch = summarize(values)
        assert stream.count == batch.count
        assert stream.mean == pytest.approx(batch.mean)
        assert stream.std == pytest.approx(batch.std)
        assert stream.minimum == batch.minimum
        assert stream.maximum == batch.maximum
        assert stream.to_summary().ci95_halfwidth() == pytest.approx(
            batch.ci95_halfwidth()
        )

    def test_exact_quantiles_below_buffer_cap(self):
        stream = StreamingSummary()
        for v in range(101):
            stream.push(v)
        assert stream.quantile(0.5) == 50
        assert stream.quantile(0.0) == 0
        assert stream.quantile(1.0) == 100
        assert stream.quantile(0.9) == pytest.approx(90)

    def test_decimation_bounds_memory_and_stays_calibrated(self):
        stream = StreamingSummary(max_samples=64)
        for v in range(10_000):
            stream.push(v)
        assert len(stream._samples) <= 64
        assert stream.quantile(0.5) == pytest.approx(5000, rel=0.1)
        assert stream.count == 10_000  # the moments are exact regardless

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            StreamingSummary().quantile(1.5)
        assert math.isnan(StreamingSummary().quantile(0.5))

    def test_edge_counts(self):
        s = StreamingSummary()
        assert math.isnan(s.std)
        s.push(4.0)
        assert s.variance == 0.0 and s.mean == 4.0


class TestReplicationSummary:
    def test_metric_attribute_access(self):
        s = ReplicationSummary(algorithm="x", n=8)
        s.observe(
            rounds=10,
            spread_rounds=8,
            messages_per_node=1.5,
            bits_per_node=12.0,
            max_fanin=3,
            success=True,
        )
        assert s.spread_rounds.mean == 8
        assert s.reps == 1 and s.successes == 1
        with pytest.raises(AttributeError):
            s.not_a_metric

    def test_wilson_interval_shrinks_with_reps(self):
        small = ReplicationSummary(algorithm="x", n=8)
        big = ReplicationSummary(algorithm="x", n=8)
        scalars = dict(
            rounds=1,
            spread_rounds=1,
            messages_per_node=1,
            bits_per_node=1,
            max_fanin=1,
            success=True,
        )
        for _ in range(10):
            small.observe(**scalars)
        for _ in range(1000):
            big.observe(**scalars)
        assert big.success_interval()[0] > small.success_interval()[0]


# ----------------------------------------------------------------------
# Executor integration: RunSpec.reps through the process pool
# ----------------------------------------------------------------------


class TestRunSpecReplication:
    def test_replicate_spec_runs_reps(self):
        spec = RunSpec(algorithm="push-pull", n=256, seed=5, reps=7)
        summary = replicate_spec(spec)
        assert summary.reps == 7
        assert summary.algorithm == "push-pull"

    def test_parallel_workers_match_serial(self):
        specs = [
            RunSpec(algorithm="push-pull", n=256, seed=0, reps=6),
            RunSpec(algorithm="cluster2", n=256, seed=0, reps=4),
        ]
        serial = execute(specs, workers=1, job=replicate_spec)
        parallel = execute(specs, workers=2, job=replicate_spec)
        assert [s.row() for s in serial] == [s.row() for s in parallel]

    def test_replication_sweep_grid(self):
        rows = replication_sweep(["push-pull"], [128, 256], reps=4)
        assert [(s.algorithm, s.n, s.reps) for s in rows] == [
            ("push-pull", 128, 4),
            ("push-pull", 256, 4),
        ]

    def test_reps_must_be_positive(self):
        with pytest.raises(ValueError, match="reps must be positive"):
            run_replications(64, "push-pull", reps=0)
        with pytest.raises(ValueError, match="unknown replication engine"):
            run_replications(64, "push-pull", reps=1, engine="warp")

    def test_one_sequential_engine(self):
        # A fresh broadcast per seed returns the reset engine's reports,
        # so it is no engine of its own (the CLI's --engine choices too).
        assert REPLICATION_ENGINES == ("auto", "vector", "reset")

    @pytest.mark.parametrize("engine", ["vector", "reset", "auto"])
    @pytest.mark.parametrize("bits", [0, -5])
    def test_nonpositive_message_bits_rejected_on_every_engine(self, engine, bits):
        match = f"rumor_bits must be positive, got {bits}"
        with pytest.raises(ValueError, match=match):
            run_replications(64, "push-pull", reps=4, engine=engine, message_bits=bits)

    @pytest.mark.parametrize("engine", ["vector", "reset"])
    @pytest.mark.parametrize("task", ["broadcast", "push-sum", "min-max", "k-rumor"])
    @pytest.mark.parametrize("max_rounds", [-1, 2.5])
    def test_bad_max_rounds_rejected_on_every_engine(self, engine, task, max_rounds):
        # One check, one message: no negative round counts, no silently
        # rounded-up float caps, no traceback from range().
        match = f"^max_rounds must be a non-negative integer, got {max_rounds}$"
        with pytest.raises(ValueError, match=match):
            run_replications(
                64, "push-pull", reps=2, engine=engine, task=task, max_rounds=max_rounds
            )

    @pytest.mark.parametrize("task", ["broadcast", "push-sum", "min-max", "k-rumor"])
    @pytest.mark.parametrize("max_rounds", [-1, 2.5])
    def test_bad_max_rounds_rejected_by_direct_batch_runners(self, task, max_rounds):
        # The batch runners are public entry points too (tests and
        # third-party tasks build them with uniform_batch_runner): the one
        # vector round loop checks the cap, as run_uniform_task does.
        from repro.baselines.push_pull import batched_push_pull
        from repro.tasks.state import ExtremeState, KRumorState, PushSumState
        from repro.tasks.transports import uniform_batch_runner

        states = {"push-sum": PushSumState, "min-max": ExtremeState, "k-rumor": KRumorState}
        runner = (
            batched_push_pull if task == "broadcast" else uniform_batch_runner(states[task])
        )
        match = f"^max_rounds must be a non-negative integer, got {max_rounds}$"
        with pytest.raises(ValueError, match=match):
            runner(64, 2, make_rng(0), max_rounds=max_rounds)

    @pytest.mark.parametrize("engine", ["vector", "reset"])
    def test_numpy_integer_max_rounds_accepted(self, engine):
        summary = run_replications(
            64, "push-pull", reps=2, engine=engine, max_rounds=np.int64(3)
        )
        assert summary.rounds.minimum == summary.rounds.maximum == 3
