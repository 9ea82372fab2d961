"""The event-driven execution tier (repro.sim.schedule).

The contract under test: the event scheduler is a *causal timing
overlay* — it never touches the algorithm's randomness, deliveries, or
metrics, so rounds/messages/bits are bit-identical to the round engine
for **any** delay model (delay randomness draws from its own dedicated
seed stream), and only the simulated clock (``sim_time``) changes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import RunSpec, run_once, sweep
from repro.core.broadcast import broadcast, run_replications
from repro.sim.network import Network
from repro.sim.rng import make_rng
from repro.sim.schedule import (
    EventScheduler,
    EventSchedulerSpec,
    parse_delay,
    resolve_scheduler,
)
from repro.sim.topology import (
    CompleteGraph,
    ConstantDelay,
    EdgeWeightedDelay,
    NodeSlowdownDelay,
    RandomRegular,
    RateLimitedEdgeDelay,
    Ring,
    UniformJitterDelay,
)
from repro.workloads.scenarios import get_scenario


def _metrics(report) -> tuple:
    return (
        report.rounds,
        report.messages,
        report.bits,
        report.max_fanin,
        int(report.informed.sum()),
    )


# ----------------------------------------------------------------------
# Spec resolution and delay parsing
# ----------------------------------------------------------------------


class TestResolution:
    def test_none_and_round_mean_no_overlay(self):
        assert resolve_scheduler(None) is None
        assert resolve_scheduler("round") is None

    def test_event_name_resolves_to_default_spec(self):
        spec = resolve_scheduler("event")
        assert isinstance(spec, EventSchedulerSpec)
        assert spec.delay is None

    def test_spec_passes_through(self):
        spec = EventSchedulerSpec(delay=ConstantDelay(2.0))
        assert resolve_scheduler(spec) is spec

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_scheduler("async")
        with pytest.raises(TypeError):
            resolve_scheduler(42)

    def test_delay_resolution_order(self):
        topo = Ring(k=2, delay=UniformJitterDelay(0.5, 1.5))
        # topology-attached model wins over the constant default ...
        assert EventSchedulerSpec().resolve_delay(topo) == UniformJitterDelay(0.5, 1.5)
        # ... an explicit spec model wins over the topology's ...
        explicit = EventSchedulerSpec(delay=ConstantDelay(3.0))
        assert explicit.resolve_delay(topo) == ConstantDelay(3.0)
        # ... and with neither, the unit constant applies.
        assert EventSchedulerSpec().resolve_delay(CompleteGraph()) == ConstantDelay(1.0)

    def test_per_edge_model_rejects_complete_graph(self):
        net = Network(64, 0)
        rng = make_rng(1)
        with pytest.raises(ValueError, match="complete graph"):
            EventSchedulerSpec(delay=EdgeWeightedDelay()).bind(net, rng)

    def test_parse_delay_round_trips(self):
        assert parse_delay("constant:2") == ConstantDelay(2.0)
        assert parse_delay("jitter:0.5,1.5") == UniformJitterDelay(0.5, 1.5)
        assert parse_delay("straggler:fraction=0.02,factor=10") == NodeSlowdownDelay(
            fraction=0.02, factor=10.0
        )
        assert parse_delay("wan") == EdgeWeightedDelay()
        assert parse_delay("rate-limited:base=2") == RateLimitedEdgeDelay(base=2.0)

    def test_parse_delay_rejects_garbage(self):
        for bad in ("latency", "constant:abc", "jitter:nope=1", "constant:1,2,3"):
            with pytest.raises(ValueError):
                parse_delay(bad)

    def test_delay_models_validate_params(self):
        with pytest.raises(ValueError):
            ConstantDelay(-1.0)
        with pytest.raises(ValueError):
            UniformJitterDelay(2.0, 1.0)
        with pytest.raises(ValueError):
            NodeSlowdownDelay(fraction=1.5)


# ----------------------------------------------------------------------
# Timing semantics
# ----------------------------------------------------------------------


class TestEventTiming:
    def test_unit_constant_delay_reproduces_round_count(self):
        report = broadcast(
            256, "push-pull", seed=7, scheduler=EventSchedulerSpec(delay=ConstantDelay(1.0))
        )
        assert report.extras["sim_time"] == pytest.approx(float(report.rounds))

    def test_zero_latency_clock_stays_frozen(self):
        report = broadcast(
            256, "push-pull", seed=7, scheduler=EventSchedulerSpec(delay=ConstantDelay(0.0))
        )
        assert report.extras["sim_time"] == 0.0

    @pytest.mark.parametrize(
        "scheduler",
        [
            EventSchedulerSpec(delay=ConstantDelay(0.0)),
            EventSchedulerSpec(delay=ConstantDelay(1.0)),
            EventSchedulerSpec(delay=UniformJitterDelay(0.5, 2.0)),
            EventSchedulerSpec(delay=NodeSlowdownDelay(fraction=0.05, factor=10.0)),
        ],
        ids=["zero", "constant", "jitter", "straggler"],
    )
    @pytest.mark.parametrize("algorithm", ["push-pull", "cluster2"])
    def test_metrics_invariant_under_any_delay(self, algorithm, scheduler):
        """The overlay only times contacts: logical output is
        bit-identical to the round engine for every delay model."""
        baseline = broadcast(512, algorithm, seed=3)
        timed = broadcast(512, algorithm, seed=3, scheduler=scheduler)
        assert _metrics(timed) == _metrics(baseline)

    def test_stragglers_dilate_completion_time(self):
        """2% of nodes at 10x latency: same rounds, much later clock —
        the tail the synchronous abstraction hides."""
        spec = EventSchedulerSpec(
            delay=NodeSlowdownDelay(base=1.0, fraction=0.02, factor=10.0)
        )
        base = broadcast(1024, "push-pull", seed=11)
        slow = broadcast(1024, "push-pull", seed=11, scheduler=spec)
        assert slow.rounds == base.rounds
        assert slow.extras["sim_time"] >= 2.0 * slow.rounds

    def test_jitter_time_brackets_round_count(self):
        spec = EventSchedulerSpec(delay=UniformJitterDelay(0.5, 1.5))
        report = broadcast(256, "push-pull", seed=5, scheduler=spec)
        assert 0.5 * report.rounds <= report.extras["sim_time"] <= 1.5 * report.rounds

    def test_sim_time_deterministic_across_runs(self):
        spec = EventSchedulerSpec(delay=UniformJitterDelay(0.5, 1.5))
        a = broadcast(256, "push-pull", seed=5, scheduler=spec)
        b = broadcast(256, "push-pull", seed=5, scheduler=spec)
        assert a.extras["sim_time"] == b.extras["sim_time"]

    def test_topology_attached_delay_times_the_run(self):
        topo = RandomRegular(d=8, delay=EdgeWeightedDelay(scale=1.0, sigma=1.0))
        report = broadcast(512, "push-pull", seed=2, topology=topo, scheduler="event")
        assert report.extras["scheduler"].startswith("event(wan")
        assert report.extras["sim_time"] > 0
        plain = broadcast(512, "push-pull", seed=2, topology=RandomRegular(d=8))
        assert _metrics(report) == _metrics(plain)

    def test_round_tier_reports_no_sim_time(self):
        report = broadcast(256, "push-pull", seed=1)
        assert "sim_time" not in report.extras
        assert "scheduler" not in report.extras


# ----------------------------------------------------------------------
# Threading: engines, runner, scenarios
# ----------------------------------------------------------------------


class TestThreading:
    def test_replication_engines_match_broadcast(self):
        spec = EventSchedulerSpec(delay=NodeSlowdownDelay(fraction=0.05, factor=5.0))
        single = broadcast(256, "push-pull", seed=4, scheduler=spec)
        for engine in ("reset", "auto"):
            summary = run_replications(
                256, "push-pull", reps=1, base_seed=4, engine=engine, scheduler=spec
            )
            sim_time = summary.metrics["sim_time"]
            assert sim_time.mean == pytest.approx(single.extras["sim_time"])

    def test_vector_engine_rejects_traced_event_tier(self):
        # The event tier rides the vector engine now; tracing
        # is what still pins a run to the sequential scheduler.
        with pytest.raises(ValueError, match="sequential"):
            run_replications(
                256,
                "push-pull",
                reps=2,
                engine="vector",
                scheduler="event",
                trace=True,
            )

    def test_auto_engine_rides_vector_under_event_tier(self):
        summary = run_replications(
            256, "push-pull", reps=2, engine="auto", scheduler="event"
        )
        assert summary.engine == "vector"
        assert "sim_time" in summary.metrics

    def test_auto_engine_falls_back_under_traced_event_tier(self):
        summary = run_replications(
            256, "push-pull", reps=2, engine="auto", scheduler="event", trace=True
        )
        assert summary.engine != "vector"
        assert "sim_time" in summary.metrics
        assert "engine_fallback" in summary.extras

    def test_run_spec_threads_scheduler(self):
        rec = run_once("push-pull", 128, 1, scheduler="event")
        assert rec.extras["sim_time"] == pytest.approx(float(rec.rounds))

    def test_sweep_threads_scheduler(self):
        records = sweep(
            ["push-pull"], [128], [0, 1], scheduler="event", workers=1
        )
        assert all("sim_time" in r.extras for r in records)

    def test_run_spec_is_picklable_with_scheduler(self):
        import pickle

        spec = RunSpec(
            algorithm="push-pull",
            n=128,
            seed=0,
            scheduler=EventSchedulerSpec(delay=UniformJitterDelay(0.5, 1.5)),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.scheduler == spec.scheduler

    @pytest.mark.parametrize(
        "name", ["straggler-tail", "skewed-wan", "rate-limited-edge"]
    )
    def test_event_tier_presets_run(self, name):
        report = get_scenario(name).run(seed=0, n=128)
        assert report.extras["sim_time"] > 0
        assert report.informed_fraction > 0


# ----------------------------------------------------------------------
# One-node networks (the exclude= crash fix)
# ----------------------------------------------------------------------


class TestSingleNode:
    def test_random_targets_exclude_returns_void_sentinel(self):
        net = Network(1, 0)
        targets = net.random_targets(
            3, make_rng(0), exclude=np.zeros(3, dtype=np.int64)
        )
        assert targets.tolist() == [-1, -1, -1]

    def test_broadcast_completes_on_one_node(self):
        report = broadcast(1, "push-pull", seed=0)
        assert report.informed_fraction == 1.0
        assert report.success

    @pytest.mark.parametrize("engine", ["reset", "auto"])
    def test_replications_complete_on_one_node(self, engine):
        summary = run_replications(1, "push-pull", reps=2, engine=engine)
        assert summary.success_rate == 1.0

    def test_vector_engine_rejects_one_node(self):
        with pytest.raises(ValueError, match="n >= 2"):
            run_replications(1, "push-pull", reps=2, engine="vector")

    def test_one_node_under_event_tier(self):
        report = broadcast(1, "push-pull", seed=0, scheduler="event")
        assert report.success


# ----------------------------------------------------------------------
# Scheduler surface invariants
# ----------------------------------------------------------------------


class TestSchedulerSurface:
    def test_round_tier_has_no_scheduler(self):
        net = Network(16, 0)
        from repro.sim.engine import Simulator

        sim = Simulator(net, make_rng(0))
        assert sim.scheduler is None
        sim.push_round(np.array([0]), np.array([1]), 64)
        assert sim.metrics.rounds == 1

    def test_describe_names_the_model(self):
        net = Network(32, 0)
        sched = EventSchedulerSpec(delay=ConstantDelay(2.0)).bind(net, make_rng(0))
        assert isinstance(sched, EventScheduler)
        assert sched.describe() == "event(constant(2))"

    def test_clocks_monotone_per_commit(self):
        net = Network(128, 0)
        sched = EventSchedulerSpec(delay=UniformJitterDelay(0.5, 1.5)).bind(
            net, make_rng(3)
        )
        from repro.sim.engine import Simulator

        sim = Simulator(net, make_rng(1), scheduler=sched)
        rng = make_rng(2)
        previous = 0.0
        for _ in range(5):
            srcs = np.arange(net.n, dtype=np.int64)
            sim.push_round(srcs, sim.random_targets(srcs), 64)
            now = sched.sim_time
            assert now >= previous
            previous = now
        assert np.all(sched.clocks() >= 0.0)


class TestCompleteGraphNeverDialsTheVoid:
    """The one-row bind marks the complete graph's bound delay
    ``no_void``, and the straggler sampler then reads every destination
    as a real node.  Any ``-1`` reaching it would wrap to the last node."""

    @pytest.mark.parametrize("algorithm", ["cluster2", "push-pull"])
    @pytest.mark.parametrize("schedule", [None, "loss:0.05,crash@3:0.2"])
    def test_no_negative_destination_reaches_the_delay(
        self, algorithm, schedule, monkeypatch
    ):
        from repro.sim.topology import _BatchSlowdownBound

        delays = _BatchSlowdownBound.delays
        seen = []

        def checked(self, rows, srcs, dsts, rng):
            assert self.no_void
            dsts = np.asarray(dsts)
            assert len(dsts) == 0 or dsts.min() >= 0, dsts.min()
            seen.append(len(dsts))
            return delays(self, rows, srcs, dsts, rng)

        monkeypatch.setattr(_BatchSlowdownBound, "delays", checked)
        straggler = NodeSlowdownDelay(base=1.0, fraction=0.05, factor=10.0)
        for seed in range(3):
            report = broadcast(
                512,
                algorithm,
                seed=seed,
                scheduler=EventSchedulerSpec(delay=straggler),
                schedule=schedule,
            )
            assert report.extras["sim_time"] > 0
        assert sum(seen) > 0
