"""The batched event tier (repro.sim.schedule.BatchClockOverlay).

The contract under test: ``run_replications(engine="vector",
scheduler=event)`` runs the event tier *on* the (R, n) executors — a
per-rep clock overlay folds every round's contacts into completion
times, so ``sim_time`` streams into the summary without leaving the
scale tier.  The overlay draws only from its own delay streams, so the
batch's rounds/messages/bits stay bit-identical with the overlay on or
off; ``sim_time`` itself is *statistically* equivalent to the
sequential event scheduler (the batched executors are never
stream-identical with the sequential engines).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.broadcast import run_replications
from repro.sim.rng import derive_seed, make_rng
from repro.sim.schedule import (
    BatchClockOverlay,
    EventSchedulerSpec,
    make_batch_overlay,
)
from repro.sim.topology import (
    CompleteGraph,
    ConstantDelay,
    EdgeWeightedDelay,
    NodeSlowdownDelay,
    RandomRegular,
    RateLimitedEdgeDelay,
    Ring,
    Torus2D,
    UniformJitterDelay,
    resolve_topology,
)

#: One entry per delay model: (scheduler spec or name, topology or None).
#: The per-edge models need a bound graph, so they ride a sparse
#: random-regular overlay; the per-node models run on the complete graph.
DELAY_CONFIGS = {
    "constant": (EventSchedulerSpec(delay=ConstantDelay(1.0)), None),
    "jitter": (EventSchedulerSpec(delay=UniformJitterDelay(low=0.5, high=1.5)), None),
    "straggler": (
        EventSchedulerSpec(delay=NodeSlowdownDelay(base=1.0, fraction=0.1, factor=5.0)),
        None,
    ),
    "edge-weighted": (
        "event",
        RandomRegular(d=8, delay=EdgeWeightedDelay(scale=1.0, sigma=1.0)),
    ),
    "rate-limited": (
        "event",
        RandomRegular(d=8, delay=RateLimitedEdgeDelay(base=1.0, fraction=0.1, factor=10.0)),
    ),
}


def _non_time_rows(summary) -> dict:
    return {k: v for k, v in summary.row().items() if not k.startswith("sim_time")}


# ----------------------------------------------------------------------
# sim_time agreement with the sequential event scheduler
# ----------------------------------------------------------------------


class TestSimTimeAgreement:
    @pytest.mark.parametrize("name", sorted(DELAY_CONFIGS))
    def test_vector_matches_sequential_statistically(self, name):
        scheduler, topology = DELAY_CONFIGS[name]
        kwargs = dict(reps=24, base_seed=11, scheduler=scheduler, topology=topology)
        seq = run_replications(128, "push-pull", engine="reset", **kwargs)
        vec = run_replications(128, "push-pull", engine="vector", **kwargs)
        assert vec.engine == "vector"
        a, b = seq.metrics["sim_time"], vec.metrics["sim_time"]
        assert a.count == b.count == 24
        # Means within 3 combined standard errors (deterministic seeds:
        # no flake — the deterministic models agree exactly).
        se = (a.std**2 / a.count + b.std**2 / b.count) ** 0.5
        assert abs(a.mean - b.mean) <= max(3.0 * se, 0.15 * max(a.mean, 1.0))

    def test_constant_delay_equals_sequential_exactly(self):
        kwargs = dict(reps=8, base_seed=3, scheduler="event")
        seq = run_replications(128, "push-pull", engine="reset", **kwargs)
        vec = run_replications(128, "push-pull", engine="vector", **kwargs)
        a, b = seq.metrics["sim_time"], vec.metrics["sim_time"]
        assert a.mean == b.mean and a.maximum == b.maximum


# ----------------------------------------------------------------------
# the overlay never touches the batch's own randomness
# ----------------------------------------------------------------------


class TestOverlayIsPure:
    @pytest.mark.parametrize(
        "algorithm,task",
        [
            ("push-pull", "broadcast"),
            ("push-pull", "push-sum"),
            ("push-pull", "k-rumor"),
            ("push-pull", "min-max"),
            ("cluster1", "broadcast"),
            ("cluster2", "broadcast"),
        ],
    )
    def test_zero_latency_is_bit_identical_to_round_tier(self, algorithm, task):
        kwargs = dict(reps=6, base_seed=5, engine="vector", task=task)
        plain = run_replications(128, algorithm, **kwargs)
        timed = run_replications(
            128,
            algorithm,
            scheduler=EventSchedulerSpec(delay=ConstantDelay(0.0)),
            **kwargs,
        )
        assert _non_time_rows(plain) == _non_time_rows(timed)

    def test_nonzero_latency_keeps_logical_metrics(self):
        kwargs = dict(reps=6, base_seed=5, engine="vector")
        plain = run_replications(128, "push-pull", **kwargs)
        timed = run_replications(
            128,
            "push-pull",
            scheduler=EventSchedulerSpec(
                delay=UniformJitterDelay(low=0.5, high=1.5)
            ),
            **kwargs,
        )
        assert _non_time_rows(plain) == _non_time_rows(timed)
        assert timed.metrics["sim_time"].mean > 0


# ----------------------------------------------------------------------
# sharding: worker-count invariance
# ----------------------------------------------------------------------


class TestSharding:
    @pytest.mark.parametrize(
        "algorithm,task", [("cluster2", "broadcast"), ("push-pull", "push-sum")]
    )
    def test_workers_do_not_move_sim_time(self, algorithm, task):
        spec = EventSchedulerSpec(
            delay=NodeSlowdownDelay(base=1.0, fraction=0.05, factor=8.0)
        )
        kwargs = dict(
            reps=10,
            base_seed=7,
            engine="vector",
            scheduler=spec,
            task=task,
            batch_elems=256 * 4,  # forces several chunks/shards
        )
        one = run_replications(256, algorithm, workers=1, **kwargs)
        two = run_replications(256, algorithm, workers=2, **kwargs)
        assert one.row() == two.row()


# ----------------------------------------------------------------------
# engine selection and the config-error contract
# ----------------------------------------------------------------------


class TestEngineSelection:
    def test_auto_selects_vector_for_batchable_event_runs(self):
        summary = run_replications(
            128, "push-pull", reps=4, base_seed=1, engine="auto", scheduler="event"
        )
        assert summary.engine == "vector"
        assert "engine_fallback" not in summary.extras
        assert "sim_time" in summary.metrics

    def test_auto_records_the_fallback_reason(self):
        summary = run_replications(
            128,
            "push-pull",
            reps=2,
            base_seed=1,
            engine="auto",
            scheduler="event",
            trace=True,
        )
        assert summary.engine == "reset"
        assert "sequential" in summary.extras["engine_fallback"]

    def test_vector_with_trace_raises_one_line(self):
        with pytest.raises(ValueError, match="scheduler=event"):
            run_replications(
                128,
                "push-pull",
                reps=2,
                engine="vector",
                scheduler="event",
                trace=True,
            )

    def test_cli_exits_2_on_unbatchable_event_vector(self, capsys, tmp_path):
        rc = main(
            [
                "run",
                "--n",
                "256",
                "--algorithm",
                "push-pull",
                "--reps",
                "2",
                "--engine",
                "vector",
                "--scheduler",
                "event",
                "--trace",
                str(tmp_path / "trace.jsonl"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_cli_event_vector_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.json"
        rc = main(
            [
                "run",
                "--n",
                "256",
                "--algorithm",
                "push-pull",
                "--reps",
                "3",
                "--engine",
                "vector",
                "--scheduler",
                "event",
                "--json",
                str(path),
            ]
        )
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["engine"] == "vector"
        assert payload["summary"]["sim_time_mean"] > 0


# ----------------------------------------------------------------------
# the batched delay samplers
# ----------------------------------------------------------------------


def _overlay_for(model_name: str, n: int, reps: int, base_seed: int):
    scheduler, topology = DELAY_CONFIGS[model_name]
    spec = (
        scheduler
        if isinstance(scheduler, EventSchedulerSpec)
        else EventSchedulerSpec()
    )
    resolved = resolve_topology(topology)
    graph = (
        None
        if resolved.complete
        else resolved.bind(n, make_rng(derive_seed(base_seed, "net")))
    )
    return make_batch_overlay(
        spec, resolved, n, reps, graph, base_seed=base_seed, first_rep=0
    )


class TestBatchedSamplers:
    @settings(max_examples=20, deadline=None)
    @given(
        model=st.sampled_from(sorted(DELAY_CONFIGS)),
        base_seed=st.integers(min_value=0, max_value=2**31),
        contacts=st.integers(min_value=1, max_value=64),
    )
    def test_draws_are_nonnegative_finite_and_seed_deterministic(
        self, model, base_seed, contacts
    ):
        n, reps = 32, 3
        rng = np.random.default_rng(base_seed)
        rows = rng.integers(0, reps, size=contacts)
        srcs = rng.integers(0, n, size=contacts)
        dsts = rng.integers(0, n, size=contacts)

        def draw():
            overlay = _overlay_for(model, n, reps, base_seed)
            overlay.fold(rows, srcs, dsts)
            return overlay.sim_time.copy()

        first, second = draw(), draw()
        assert np.isfinite(first).all()
        assert (first >= 0).all()
        # Same seed, same construction order -> identical draws.
        np.testing.assert_array_equal(first, second)

    def test_overlay_matches_sequential_per_rep_streams(self):
        # Rep r of a vector chunk at first_rep=f draws its node-slowdown
        # mask from derive_seed(base_seed + f + r, "delay") — the
        # sequential bind's stream for seed base_seed + f + r.
        n, base_seed = 64, 9
        model = NodeSlowdownDelay(base=1.0, fraction=0.25, factor=4.0)
        overlay = make_batch_overlay(
            EventSchedulerSpec(delay=model),
            resolve_topology(None),
            n,
            3,
            None,
            base_seed=base_seed,
            first_rep=2,
        )
        slow = overlay._delay._slow
        for i in range(3):
            rep_rng = make_rng(derive_seed(base_seed + 2 + i, "delay"))
            expected = rep_rng.random(n) < model.fraction
            if not expected.any():
                expected[int(rep_rng.integers(0, n))] = True
            np.testing.assert_array_equal(slow[i], expected)


# ----------------------------------------------------------------------
# the overlay itself
# ----------------------------------------------------------------------


class TestBatchClockOverlay:
    def test_constant_fast_path_equals_general_fold(self):
        n, reps = 8, 4
        fast = make_batch_overlay(
            EventSchedulerSpec(delay=ConstantDelay(2.0)),
            resolve_topology(None),
            n,
            reps,
            None,
            base_seed=1,
            first_rep=0,
        )
        slow = make_batch_overlay(
            EventSchedulerSpec(delay=ConstantDelay(2.0)),
            resolve_topology(None),
            n,
            reps,
            None,
            base_seed=1,
            first_rep=0,
        )
        slow._materialise()  # force the general (R, n) fold path
        rng = np.random.default_rng(0)
        for _ in range(3):
            targets = rng.integers(0, n, size=(reps, n))
            act = np.arange(reps)
            fast.full_round(act, targets)
            slow.full_round(act, targets)
        np.testing.assert_array_equal(fast.sim_time, slow.sim_time)

    def test_idle_reps_take_no_time(self):
        overlay = make_batch_overlay(
            EventSchedulerSpec(delay=ConstantDelay(1.0)),
            resolve_topology(None),
            4,
            3,
            None,
            base_seed=0,
            first_rep=0,
        )
        targets = np.zeros((1, 4), dtype=np.int64)
        overlay.full_round(np.array([1]), targets)  # only rep 1 acts
        assert overlay.sim_time.tolist() == [0.0, 1.0, 0.0]

    def test_zero_delay_folds_nothing(self):
        overlay = make_batch_overlay(
            EventSchedulerSpec(delay=ConstantDelay(0.0)),
            resolve_topology(None),
            4,
            2,
            None,
            base_seed=0,
            first_rep=0,
        )
        overlay.full_round(np.arange(2), np.zeros((2, 4), dtype=np.int64))
        assert overlay.zero
        assert overlay.sim_time.tolist() == [0.0, 0.0]


# ----------------------------------------------------------------------
# diameter hints
# ----------------------------------------------------------------------


class TestDiameterHints:
    def test_hints_scale_with_the_topology(self):
        assert CompleteGraph().diameter_hint(2**10) == 10
        assert Ring(k=4).diameter_hint(2**9) == 64  # ceil(n / 2k)
        assert Torus2D().diameter_hint(64 * 64) == 64  # rows/2 + cols/2
        hint = RandomRegular(d=8).diameter_hint(2**12)
        assert 1 <= hint <= 12  # O(log n / log(d-1)) + slack
        # A 2-regular "ring in disguise" cannot pretend to be shallow.
        assert RandomRegular(d=2).diameter_hint(100) == 50

    def test_hint_is_monotone_in_n(self):
        for topo in (CompleteGraph(), Ring(k=2), RandomRegular(d=8)):
            hints = [topo.diameter_hint(n) for n in (2**6, 2**9, 2**12)]
            assert hints == sorted(hints)

    def test_ring_presets_succeed_under_the_default_cap(self):
        # The default cap reads the ring's hint; no preset sets a budget.
        from repro.workloads.scenarios import SCENARIOS, run_scenario

        for name in ("ring-broadcast", "rate-limited-edge"):
            assert "max_rounds" not in SCENARIOS[name].kwargs
            for seed in range(5):
                assert run_scenario(name, seed=seed).success, (name, seed)
