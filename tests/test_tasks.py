"""Tests for the task layer: registry, states, transports, replication.

The task layer's contract, pinned here:

* any compatible (algorithm, task) pair runs through the ordinary
  ``broadcast()`` plumbing and returns a well-formed report;
* task semantics are honest — push-sum estimates actually approximate
  the true mean, min/max actually disseminates the global extreme,
  k-rumor messages actually grow with k;
* the default broadcast task is bit-identical to the pre-task-layer
  engine (the fingerprint corpus in test_fingerprints.py pins this
  globally; here we pin the API equivalence);
* tasks compose with dynamics schedules, pre-run failures, and all
  three replication engines.
"""

import numpy as np
import pytest

from repro import broadcast, run_replications
from repro.core.broadcast import ReplicationEngine, report_scalars
from repro.registry import (
    IncompatibleTaskError,
    TaskSpec,
    UnknownTaskError,
    compatible_algorithms,
    get_task,
    register_task,
    supports_task,
    task_names,
    unregister_task,
)
from repro.tasks.state import ExtremeState, KRumorState, PushSumState

TASK_MATRIX = [
    ("k-rumor", {"k": 4}),
    ("push-sum", {}),
    ("min-max", {}),
]
TRANSPORT_ALGOS = ["push-pull", "push", "cluster1", "cluster2"]


class TestTaskRegistry:
    def test_catalogue(self):
        names = task_names()
        assert {"broadcast", "k-rumor", "push-sum", "min-max"} <= set(names)

    def test_unknown_task(self):
        with pytest.raises(UnknownTaskError, match="no-such-task"):
            get_task("no-such-task")

    def test_compatibility(self):
        for algo in TRANSPORT_ALGOS:
            assert supports_task(algo, "push-sum")
        assert not supports_task("pull", "push-sum")
        assert supports_task("pull", "broadcast")
        assert set(TRANSPORT_ALGOS) <= set(compatible_algorithms("k-rumor"))

    def test_incompatible_pair_rejected_before_any_network(self):
        with pytest.raises(IncompatibleTaskError, match="compatible"):
            broadcast(256, "pull", task="push-sum")

    def test_unknown_task_kwarg_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            broadcast(256, "push-pull", task="k-rumor", task_kwargs={"zz": 1})

    def test_duplicate_registration_conflicts(self):
        register_task(TaskSpec(name="tmp-task", factory=lambda *a, **k: None))
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_task(TaskSpec(name="tmp-task", factory=dict))
        finally:
            unregister_task("tmp-task")

    def test_broadcast_task_cannot_be_unregistered(self):
        with pytest.raises(ValueError):
            unregister_task("broadcast")


class TestEndToEnd:
    @pytest.mark.parametrize("task,task_kwargs", TASK_MATRIX)
    @pytest.mark.parametrize("algorithm", TRANSPORT_ALGOS)
    def test_static_matrix_completes(self, task, task_kwargs, algorithm):
        report = broadcast(
            512, algorithm, task=task, task_kwargs=task_kwargs, seed=11
        )
        assert report.algorithm == algorithm
        assert report.extras["task"] == task
        assert report.success, (task, algorithm, report.extras)
        assert report.extras["converged"]
        assert report.extras["task_error"] <= 1e-3 + 1e-12
        assert report.informed.dtype == bool and report.informed.all()
        assert report.rounds > 0 and report.messages > 0 and report.bits > 0
        # The error series was recorded every committed round.
        assert len(report.metrics.error_series) == report.rounds

    def test_push_sum_estimates_the_mean(self):
        report = broadcast(1024, "push-pull", task="push-sum",
                           task_kwargs={"tol": 1e-4}, seed=3)
        assert report.success
        assert abs(report.extras["task_mu"] - 0.5) < 0.05  # uniform values
        assert report.extras["task_error"] <= 1e-4

    def test_cluster_push_sum_is_nearly_exact(self):
        report = broadcast(1024, "cluster2", task="push-sum", seed=5)
        assert report.success
        # All mass gathered at one leader: exact to float rounding.
        assert report.extras["task_error"] < 1e-9

    def test_min_max_finds_the_extreme(self):
        for mode in ("min", "max"):
            report = broadcast(512, "push-pull", task="min-max",
                               task_kwargs={"mode": mode}, seed=7)
            assert report.success
            assert report.extras["task_mode"] == mode

    def test_k_rumor_bits_scale_with_k(self):
        bits = {
            k: broadcast(512, "push-pull", task="k-rumor",
                         task_kwargs={"k": k}, seed=1).bits
            for k in (2, 8)
        }
        assert bits[8] > 2 * bits[2]

    def test_k_rumor_rejects_too_many_sources(self):
        with pytest.raises(ValueError, match="sources exceed"):
            broadcast(8, "push-pull", task="k-rumor", task_kwargs={"k": 9})

    def test_completion_round_recorded(self):
        report = broadcast(512, "push-pull", task="min-max", seed=2)
        assert report.extras["completion_round"] == report.rounds
        assert report.spread_rounds == report.rounds


class TestTaskComposition:
    @pytest.mark.parametrize("task,task_kwargs", TASK_MATRIX)
    def test_with_dynamics_schedule(self, task, task_kwargs):
        report = broadcast(
            512,
            "push-pull",
            task=task,
            task_kwargs=task_kwargs,
            schedule="churn-light",
            seed=4,
        )
        assert "dyn_crashed" in report.extras
        assert 0.0 <= report.informed_fraction <= 1.0

    def test_cluster_task_under_churn(self):
        report = broadcast(
            1024, "cluster2", task="min-max", schedule="churn-light", seed=6
        )
        # Idempotent aggregate survives churn: survivors still learn it.
        assert report.informed_fraction > 0.99

    def test_with_prerun_failures(self):
        report = broadcast(
            512, "push-pull", task="push-sum", failures=64, seed=9
        )
        assert report.success
        # mu is computed over the post-failure population.
        assert report.extras["task_error"] <= 1e-3

    def test_lossy_push_sum_loses_mass_but_reports_it(self):
        report = broadcast(
            512,
            "push-pull",
            task="push-sum",
            task_kwargs={"tol": 0.5},
            schedule="loss:0.2",
            seed=8,
        )
        assert report.extras["dyn_messages_lost"] > 0
        assert np.isfinite(report.extras["task_error"])


class TestTaskReplication:
    @pytest.mark.parametrize("task,task_kwargs", TASK_MATRIX)
    def test_reset_engine_bit_identical_to_broadcast(self, task, task_kwargs):
        eng = ReplicationEngine(256, "push-pull", task=task, task_kwargs=task_kwargs)
        for seed in (0, 5):
            assert report_scalars(eng.run(seed)) == report_scalars(
                broadcast(256, "push-pull", seed=seed, task=task,
                          task_kwargs=task_kwargs)
            )

    def test_vector_engine_runs_push_sum(self):
        summary = run_replications(
            512, "push-pull", reps=16, task="push-sum", engine="vector"
        )
        assert summary.engine == "vector" and summary.task == "push-sum"
        assert summary.reps == 16
        assert summary.success_rate == 1.0
        assert summary.metrics["task_error"].maximum <= 1e-3

    def test_auto_prefers_vector_for_push_sum(self):
        assert (
            run_replications(256, "push-pull", reps=2, task="push-sum").engine
            == "vector"
        )
        # ... but falls back to reset under a schedule or another algorithm.
        assert (
            run_replications(
                256, "push-pull", reps=2, task="push-sum", schedule="loss:0.01"
            ).engine
            == "reset"
        )
        assert (
            run_replications(256, "cluster2", reps=2, task="push-sum").engine
            == "reset"
        )

    def test_vector_available_for_all_push_pull_tasks(self):
        # Every built-in task now has a push-pull batch runner (push-sum
        # since PR 4, k-rumor and min-max since the topology PR).
        for task in ("k-rumor", "min-max", "push-sum"):
            summary = run_replications(
                256, "push-pull", reps=2, task=task, engine="auto"
            )
            assert summary.engine == "vector"

    def test_vector_unavailable_without_a_task_batch_runner(self):
        # The push baseline has a task transport but no batch runners.
        with pytest.raises(ValueError, match="vector engine unavailable"):
            run_replications(
                256, "push", reps=2, task="k-rumor", engine="vector"
            )

    def test_unknown_task_kwarg_uniform_across_engines(self):
        # Both the sequential and vector paths must reject an undeclared
        # knob with the task layer's message, not a raw TypeError.
        for engine in ("reset", "vector"):
            with pytest.raises(ValueError, match="does not accept"):
                run_replications(
                    256, "push-pull", reps=2, task="push-sum",
                    task_kwargs={"bogus": 1}, engine=engine,
                )

    def test_task_error_stream_only_for_aggregation(self):
        with_err = run_replications(256, "push-pull", reps=3, task="push-sum")
        assert "task_error" in with_err.metrics
        without = run_replications(256, "push-pull", reps=3)
        assert "task_error" not in without.metrics
        assert "task_error_mean" in with_err.row()


class TestDefaultTaskUntouched:
    def test_explicit_broadcast_task_is_the_legacy_path(self):
        a = broadcast(512, "cluster2", seed=13)
        b = broadcast(512, "cluster2", seed=13, task="broadcast")
        assert report_scalars(a) == report_scalars(b)
        assert np.array_equal(a.informed, b.informed)
        # The legacy path records no task error series.
        assert a.metrics.error_series == []
        assert "task" not in a.extras


class TestTaskScenarios:
    def test_presets_registered_and_valid(self):
        from repro.workloads.scenarios import SCENARIOS

        for name in (
            "all-cast-k8",
            "mean-estimation",
            "cluster-aggregation",
            "aggregation-under-churn",
            "extrema-broadcast",
        ):
            assert name in SCENARIOS
            assert SCENARIOS[name].task != "broadcast"

    def test_preset_runs_at_small_n(self):
        from repro.workloads.scenarios import run_scenario

        report = run_scenario("mean-estimation", seed=1, n=256)
        assert report.extras["task"] == "push-sum"
        assert report.success

    def test_preset_compiles_to_runspec(self):
        from repro.workloads.scenarios import get_scenario

        spec = get_scenario("all-cast-k8").run_spec(seed=3)
        assert spec.task == "k-rumor" and spec.task_kwargs == {"k": 8}

    def test_invalid_task_scenario_rejected(self):
        from repro.workloads.scenarios import Scenario

        with pytest.raises(ValueError, match="cannot run task"):
            Scenario(
                name="bad", description="", n=256, algorithm="pull",
                message_bits=64, task="push-sum",
            )


class TestVectorisedTaskRunners:
    """The batch task transport (repro.tasks.transports.run_uniform_batch)
    over the push-sum, k-rumor and min-max states: statistically
    equivalent to the reset engine, deterministic, and
    schedule-identical."""

    @pytest.mark.parametrize(
        "task,task_kwargs",
        [("k-rumor", {"k": 8}), ("min-max", {}), ("push-sum", {})],
    )
    def test_statistically_equivalent_to_reset(self, task, task_kwargs):
        vec = run_replications(
            512, "push-pull", reps=60, task=task,
            task_kwargs=task_kwargs, engine="vector",
        )
        seq = run_replications(
            512, "push-pull", reps=60, task=task,
            task_kwargs=task_kwargs, engine="reset",
        )
        assert vec.success_rate == seq.success_rate == 1.0
        assert abs(vec.spread_rounds.mean - seq.spread_rounds.mean) < 1.5
        # Min-max and push-sum push from every node: exactly one message
        # per node per active round in both engines.
        assert abs(
            vec.messages_per_node.mean - seq.messages_per_node.mean
        ) < 0.1 * seq.messages_per_node.mean
        assert abs(
            vec.bits_per_node.mean - seq.bits_per_node.mean
        ) < 0.1 * seq.bits_per_node.mean

    def test_batched_task_runners_deterministic(self):
        for task, kwargs in [("k-rumor", {"k": 4}), ("min-max", {})]:
            a = run_replications(
                256, "push-pull", reps=20, task=task,
                task_kwargs=kwargs, engine="vector",
            )
            b = run_replications(
                256, "push-pull", reps=20, task=task,
                task_kwargs=kwargs, engine="vector",
            )
            assert a.row() == b.row()

    def test_batched_k_rumor_chunked_covers_all_reps(self):
        s = run_replications(
            256, "push-pull", reps=11, task="k-rumor",
            task_kwargs={"k": 4}, engine="vector", batch_elems=256 * 4,
        )
        assert s.reps == 11 and s.success_rate == 1.0

    def test_batched_k_rumor_distinct_sources(self):
        from repro.sim.rng import make_rng
        from repro.tasks.state import KRumorState
        from repro.tasks.transports import uniform_batch_runner

        batched_k_rumor = uniform_batch_runner(KRumorState)
        out = batched_k_rumor(64, 5, make_rng(0), k=16, max_rounds=0)
        # k distinct sources: exactly k held rumors at round 0, never
        # fewer (a collision would merge two columns onto one node).
        assert (out.informed_counts == 0).all()  # nobody complete yet
        assert (out.task_error == 1.0 - 16 / (64.0 * 16)).all()

    def test_batched_min_max_mode_max(self):
        from repro.sim.rng import make_rng
        from repro.tasks.state import ExtremeState
        from repro.tasks.transports import uniform_batch_runner

        batched_min_max = uniform_batch_runner(ExtremeState)
        out = batched_min_max(128, 10, make_rng(0), mode="max")
        assert out.success.all()
        with pytest.raises(ValueError, match="mode"):
            batched_min_max(128, 2, make_rng(0), mode="median")


class TestOneRowCrossTier:
    """A one-row state runs the same on both tiers.  Two deep copies of
    one ``reps = 1`` state, one driven through the batch task transport
    and one through the sequential loop with the batch rounds' contacts,
    end with bit-identical arrays and the same ledger."""

    @pytest.mark.parametrize(
        "state_type,knobs",
        [
            (KRumorState, {"k": 3}),
            (PushSumState, {}),
            (ExtremeState, {"mode": "max"}),
        ],
    )
    def test_batch_transport_matches_run_uniform_task(
        self, state_type, knobs, monkeypatch
    ):
        import copy

        import repro.sim.batch as batch
        from repro.sim.rng import make_rng
        from repro.tasks.transports import run_uniform_batch, run_uniform_task

        from helpers import build_sim

        n = 300
        state = state_type.batch(n, 1, make_rng(11), **knobs)
        on_batch, on_sim = copy.deepcopy(state), copy.deepcopy(state)

        contacts = []
        draw = batch.random_targets_batch

        def recorded(rng, reps, n, dtype=None):
            targets = draw(rng, reps, n, dtype)
            contacts.append(targets[0].astype(np.int64))
            return targets

        monkeypatch.setattr(batch, "random_targets_batch", recorded)
        out = run_uniform_batch(on_batch, make_rng(12))

        sim = build_sim(n)
        committed = []
        sim.add_commit_hook(lambda s: committed.append(s.metrics.rounds))
        sim.random_targets = lambda srcs: contacts[len(committed)][srcs]
        completion = run_uniform_task(sim, on_sim, mode="push-pull")

        arrays = {
            name: value
            for name, value in vars(on_batch).items()
            if isinstance(value, np.ndarray)
        }
        assert arrays
        for name, value in arrays.items():
            other = getattr(on_sim, name)
            assert (other.dtype, other.shape) == (value.dtype, value.shape), name
            assert other.tobytes() == value.tobytes(), name
        m = sim.metrics
        assert len(contacts) == m.rounds == out.rounds[0] > 0
        assert (m.messages, m.bits, m.max_fanin) == (
            out.messages[0],
            out.bits[0],
            out.max_fanin[0],
        )
        assert (-1 if completion is None else completion) == out.completion_round[0]


class TestPushSumMassRestoration:
    """The restore_mass variant: ReviveAt-rejoined nodes re-inject unit
    weight, and every push-sum report carries both the biased error
    (against the initial mean) and the repaired error (against the
    surviving-mass target)."""

    SCHEDULE = "crash@2:0.3,revive@6:0.3"

    def test_both_errors_reported(self):
        report = broadcast(512, "push-pull", seed=1, task="push-sum")
        assert "task_error" in report.extras
        assert "task_error_repaired" in report.extras
        # Zero adversity: no mass lost, the two targets coincide.
        assert report.extras["task_error"] == pytest.approx(
            report.extras["task_error_repaired"], rel=1e-6
        )

    def test_restoration_reinjects_weight(self):
        restored = broadcast(
            512, "push-pull", seed=3, task="push-sum",
            task_kwargs={"tol": 5e-2, "restore_mass": True},
            schedule=self.SCHEDULE,
        )
        assert restored.extras["task_restore_mass"] is True
        assert restored.extras["task_mass_restored"] > 0

    def test_repaired_error_beats_biased_under_churn(self):
        # Crash 30% (their mass goes inert), revive them with fresh unit
        # mass: the estimates converge to the surviving-mass target, so
        # the repaired error ends small while the biased error keeps the
        # drift. Averaged over seeds — single runs are noisy.
        biased, repaired = [], []
        for seed in range(5):
            r = broadcast(
                512, "push-pull", seed=seed, task="push-sum",
                task_kwargs={"tol": 1e-3, "restore_mass": True},
                schedule=self.SCHEDULE,
            )
            biased.append(r.extras["task_error"])
            repaired.append(r.extras["task_error_repaired"])
        assert np.mean(repaired) < np.mean(biased)

    def test_without_restoration_revived_mass_returns(self):
        # Default semantics: a revived node resumes with whatever mass
        # it held at crash time — no re-injection is recorded.
        r = broadcast(
            512, "push-pull", seed=3, task="push-sum",
            task_kwargs={"tol": 5e-2}, schedule=self.SCHEDULE,
        )
        assert "task_restore_mass" not in r.extras

    def test_replication_summary_streams_both_errors(self):
        summary = run_replications(
            256, "push-pull", reps=4, task="push-sum",
            task_kwargs={"restore_mass": True, "tol": 5e-2},
            schedule=self.SCHEDULE,
        )
        assert "task_error" in summary.metrics
        assert "task_error_repaired" in summary.metrics
        row = summary.row()
        assert "task_error_repaired_mean" in row

    def test_vector_engine_streams_repaired_too(self):
        summary = run_replications(
            256, "push-pull", reps=6, task="push-sum", engine="vector"
        )
        assert "task_error_repaired" in summary.metrics

    def test_restore_mass_over_cluster_transport(self):
        report = broadcast(
            1024, "cluster2", seed=0, task="push-sum",
            task_kwargs={"tol": 5e-2, "restore_mass": True},
            schedule=self.SCHEDULE,
        )
        assert "task_error_repaired" in report.extras


class TestNoTransportErrorShape:
    """The no-registered-transport failure is a clear ValueError naming
    the pair — never a deep KeyError — on every entry path."""

    def test_broadcast_raises_clear_valueerror(self):
        with pytest.raises(ValueError, match="no registered task transport"):
            broadcast(256, "cluster3", task="push-sum")
        with pytest.raises(IncompatibleTaskError, match="compatible algorithms"):
            broadcast(256, "avin-elsasser", task="k-rumor")

    def test_replication_paths_raise_clear_valueerror(self):
        for engine in ("auto", "reset"):
            with pytest.raises(ValueError, match="no registered task transport"):
                run_replications(
                    256, "cluster3", reps=2, task="min-max", engine=engine
                )

    def test_cli_run_prints_clean_error(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(
            ["run", "--n", "256", "--algorithm", "cluster3", "--task", "push-sum"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err
        assert "no registered task transport" in captured.err
