"""The contact-topology layer (repro.sim.topology) across the stack.

Four groups:

* graph construction — CSR integrity (sorted rows, symmetric, no
  self-loops), degree contracts per family, and reproducibility;
* the sampling contract — a Hypothesis property test that every
  ``ContactGraph.sample_contacts`` draw is alive, in-neighborhood, and
  never self (``-1`` exactly when the caller has no alive neighbor),
  under arbitrary liveness masks;
* engine semantics — the complete default is bit-identical to the
  pre-topology engine, uniform contacts respect the graph, and the
  ``direct_addressing="topology"`` mode voids off-graph direct calls;
* the threaded surface — registry catalogue and per-algorithm
  compatibility, ``broadcast``/replication/parallel-sweep plumbing
  (bit-identical across worker counts), scenario presets and the CLI.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import RunSpec, execute
from repro.cli import main as cli_main
from repro.core.broadcast import ReplicationEngine, broadcast, run_replications
from repro.registry import (
    DuplicateTopologyError,
    TopologySpec,
    UnknownTopologyError,
    compatible_topologies,
    get_topology_spec,
    make_topology,
    register_topology,
    supports_topology,
    topology_names,
    unregister_topology,
)
from repro.sim.engine import Metrics, Simulator
from repro.sim.network import Network
from repro.sim.rng import make_rng
from repro.sim.topology import (
    COMPLETE,
    CompleteGraph,
    ErdosRenyiGnp,
    RandomRegular,
    Ring,
    Torus2D,
    resolve_topology,
)
from repro.workloads.scenarios import get_scenario, run_scenario


def graph_of(spec, n, seed=0):
    return spec.bind(n, make_rng(seed))


class TestConstruction:
    def test_ring_neighbors(self):
        g = graph_of(Ring(k=2), 10)
        assert list(g.neighbors(0)) == [1, 2, 8, 9]
        assert (g.degrees == 4).all()

    def test_ring_needs_room(self):
        with pytest.raises(ValueError, match="n > 2k"):
            graph_of(Ring(k=4), 8)
        with pytest.raises(ValueError, match="k must be"):
            Ring(k=0)

    def test_torus_dims_and_degree(self):
        assert Torus2D.dims(36) == (6, 6)
        assert Torus2D.dims(2**12) == (64, 64)
        g = graph_of(Torus2D(), 36)
        assert (g.degrees == 4).all()
        # prime n degenerates to a path-like grid and is refused
        with pytest.raises(ValueError, match="factorisation"):
            graph_of(Torus2D(), 97)

    def test_random_regular_is_regular_and_simple(self):
        g = graph_of(RandomRegular(d=8), 2**10, seed=3)
        assert (g.degrees == 8).all()
        src = np.repeat(np.arange(g.n), g.degrees)
        assert not (src == g.indices).any()  # no self-loops
        # sorted rows, no duplicate edges within a row
        for node in range(0, g.n, 97):
            row = g.neighbors(node)
            assert (np.diff(row) > 0).all()

    def test_random_regular_parity_checked(self):
        with pytest.raises(ValueError, match="even"):
            graph_of(RandomRegular(d=3), 9)
        with pytest.raises(ValueError, match="n > d"):
            graph_of(RandomRegular(d=8), 8)

    def test_gnp_degree_concentrates(self):
        g = graph_of(ErdosRenyiGnp(), 2**11, seed=1)
        expected = 2 * np.log(2**11)
        assert expected / 2 < g.degrees.mean() < expected * 2
        with pytest.raises(ValueError, match="p must be"):
            ErdosRenyiGnp(p=1.5)

    def test_symmetry(self):
        for spec in (Ring(k=3), Torus2D(), RandomRegular(d=6), ErdosRenyiGnp(p=0.05)):
            g = graph_of(spec, 144, seed=5)
            src = np.repeat(np.arange(g.n), g.degrees)
            assert g.reachable(g.indices, src).all(), spec

    def test_same_seed_same_graph(self):
        a = graph_of(RandomRegular(d=8), 512, seed=9)
        b = graph_of(RandomRegular(d=8), 512, seed=9)
        c = graph_of(RandomRegular(d=8), 512, seed=10)
        assert (a.indices == b.indices).all()
        assert len(a.indices) == len(c.indices) and (a.indices != c.indices).any()

    def test_complete_binds_to_none(self):
        assert CompleteGraph().bind(2**20, make_rng(0)) is None
        assert CompleteGraph().complete and not Ring().complete


# ----------------------------------------------------------------------
# The sampling contract (Hypothesis)
# ----------------------------------------------------------------------

topologies = st.one_of(
    st.integers(min_value=1, max_value=4).map(lambda k: Ring(k=k)),
    st.just(Torus2D()),
    st.sampled_from([RandomRegular(d=4), RandomRegular(d=6), RandomRegular(d=8)]),
    st.floats(min_value=0.02, max_value=0.3).map(lambda p: ErdosRenyiGnp(p=p)),
)


class TestSamplingContract:
    @given(
        spec=topologies,
        seed=st.integers(min_value=0, max_value=2**20),
        dead_fraction=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_contacts_alive_in_neighborhood_never_self(
        self, spec, seed, dead_fraction
    ):
        n = 64
        graph = spec.bind(n, make_rng(seed))
        rng = make_rng(seed + 1)
        alive = rng.random(n) >= dead_fraction
        callers = np.flatnonzero(alive)
        if len(callers) == 0:
            return
        targets = graph.sample_contacts(callers, rng, alive=alive, epoch=None)
        has_alive_neighbor = graph.alive_degree(callers, alive) > 0
        # -1 exactly for callers with no alive neighbor ...
        assert ((targets == -1) == ~has_alive_neighbor).all()
        hit = targets >= 0
        # ... and every real draw is alive, an edge, and not the caller.
        assert alive[targets[hit]].all()
        assert graph.reachable(callers[hit], targets[hit]).all()
        assert (targets[hit] != callers[hit]).all()

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=20, deadline=None)
    def test_structural_draw_without_liveness(self, seed):
        graph = Ring(k=2).bind(32, make_rng(0))
        callers = np.arange(32)
        targets = graph.sample_contacts(callers, make_rng(seed))
        assert graph.reachable(callers, targets).all()
        assert (targets != callers).all()

    def test_remask_cache_tracks_epoch(self):
        net = Network(64, rng=0, topology=Ring(k=1))
        rng = make_rng(1)
        net.fail([1])
        t = net.random_targets(1, rng, exclude=np.array([0]))
        assert t[0] == 63  # only alive neighbor of 0
        net.revive([1])
        net.fail([63])
        t = net.random_targets(1, rng, exclude=np.array([0]))
        assert t[0] == 1  # re-masked after the epoch moved


# ----------------------------------------------------------------------
# Engine semantics
# ----------------------------------------------------------------------


class TestEngineSemantics:
    def test_complete_default_bit_identical(self):
        a = broadcast(1024, "push-pull", seed=4)
        b = broadcast(1024, "push-pull", seed=4, topology=CompleteGraph())
        c = broadcast(1024, "push-pull", seed=4, topology="complete")
        for other in (b, c):
            assert (a.rounds, a.messages, a.bits, a.max_fanin) == (
                other.rounds,
                other.messages,
                other.bits,
                other.max_fanin,
            )
            assert (a.informed == other.informed).all()

    def test_uniform_contacts_respect_the_graph(self):
        # Push-pull on a ring only ever delivers along ring edges: after
        # r rounds the informed set is within distance r*k of the source.
        k, n, rounds = 2, 256, 10
        report = broadcast(
            n, "push-pull", seed=0, topology=Ring(k=k), max_rounds=rounds
        )
        informed = np.flatnonzero(report.informed)
        dist = np.minimum((informed - 0) % n, (0 - informed) % n)
        assert dist.max() <= rounds * k

    def test_void_contact_charged_but_undelivered(self):
        net = Network(64, rng=0, topology=Ring(k=1), direct_addressing="topology")
        sim = Simulator(net, make_rng(0), Metrics(net.n))
        # 0 -> 5 is not a ring edge: the push is charged, delivered nowhere.
        delivery = sim.push_round(np.array([0]), np.array([5]), 256)
        assert len(delivery.dsts) == 0
        assert sim.metrics.messages == 1
        # 0 -> 1 is an edge: delivered.
        delivery = sim.push_round(np.array([0]), np.array([1]), 256)
        assert list(delivery.dsts) == [1]

    def test_global_addressing_ignores_the_graph_for_direct_calls(self):
        net = Network(64, rng=0, topology=Ring(k=1), direct_addressing="global")
        sim = Simulator(net, make_rng(0), Metrics(net.n))
        delivery = sim.push_round(np.array([0]), np.array([5]), 256)
        assert list(delivery.dsts) == [5]

    def test_nobody_to_call_sentinel_goes_to_void(self):
        net = Network(16, rng=0, topology=Ring(k=1))
        net.fail([1, 15])  # node 0's whole neighborhood
        sim = Simulator(net, make_rng(0), Metrics(net.n))
        srcs = np.array([0])
        dsts = net.random_targets(1, sim.rng, exclude=srcs)
        assert dsts[0] == -1
        delivery = sim.push_round(srcs, dsts, 256)
        assert len(delivery.dsts) == 0  # charged, undeliverable

    def test_cluster2_on_expander_with_global_addressing_succeeds(self):
        report = broadcast(2048, "cluster2", seed=0, topology=RandomRegular(d=8))
        assert report.success
        assert report.extras["topology"] == "random-regular(d=8)"

    def test_topology_mode_starves_direct_addressing(self):
        # The headline experiment: cluster2's learned addresses are
        # useless when calls must follow a sparse graph's edges.
        restricted = broadcast(
            1024,
            "cluster2",
            seed=0,
            topology=RandomRegular(d=8),
            direct_addressing="topology",
        )
        global_ = broadcast(1024, "cluster2", seed=0, topology=RandomRegular(d=8))
        assert global_.informed_fraction > 10 * restricted.informed_fraction

    def test_invalid_addressing_mode_rejected(self):
        with pytest.raises(ValueError, match="direct_addressing"):
            Network(64, direct_addressing="telepathy")
        with pytest.raises(ValueError, match="direct_addressing"):
            broadcast(64, "push-pull", direct_addressing="telepathy")

    def test_restricted_sampling_requires_callers(self):
        net = Network(64, rng=0, topology=Ring(k=1))
        with pytest.raises(ValueError, match="caller indices"):
            net.random_targets(4, make_rng(0))


# ----------------------------------------------------------------------
# Registry and threaded surface
# ----------------------------------------------------------------------


class TestRegistry:
    def test_catalogue(self):
        names = topology_names()
        assert {"complete", "ring", "torus", "random-regular", "gnp"} <= set(names)
        assert get_topology_spec("ring").kwargs == ("k",)

    def test_make_topology_validates_kwargs(self):
        assert make_topology("ring", k=3) == Ring(k=3)
        with pytest.raises(ValueError, match="does not accept"):
            make_topology("ring", degree=3)
        with pytest.raises(UnknownTopologyError):
            make_topology("smallworld")

    def test_resolve(self):
        assert resolve_topology(None) is COMPLETE
        assert resolve_topology("torus") == Torus2D()
        assert resolve_topology(Ring(k=2)) == Ring(k=2)
        with pytest.raises(TypeError):
            resolve_topology(42)

    def test_register_conflicts_and_removal(self):
        spec = TopologySpec(name="test-topo", factory=Ring, kwargs=("k",))
        register_topology(spec)
        try:
            with pytest.raises(DuplicateTopologyError):
                register_topology(
                    TopologySpec(name="test-topo", factory=Torus2D)
                )
        finally:
            unregister_topology("test-topo")
        with pytest.raises(ValueError, match="cannot be unregistered"):
            unregister_topology("complete")

    def test_per_algorithm_compatibility(self):
        assert supports_topology("cluster2", Ring(k=2))
        assert supports_topology("median-counter", "complete")
        assert not supports_topology("median-counter", Ring(k=2))
        assert compatible_topologies("median-counter") == ["complete"]
        assert "ring" in compatible_topologies("push-pull")

    def test_incompatible_pair_is_clear_valueerror(self):
        with pytest.raises(ValueError, match="complete contact graph"):
            broadcast(256, "median-counter", topology="ring")


class TestThreadedSurface:
    def test_replication_engine_bit_identical_per_seed(self):
        engine = ReplicationEngine(
            512, "push-pull", topology=RandomRegular(d=8), schedule="trickle:0.01"
        )
        engine.run(7)  # warm the reuse path
        lean = engine.run(3)
        fresh = broadcast(
            512,
            "push-pull",
            seed=3,
            topology=RandomRegular(d=8),
            schedule="trickle:0.01",
        )
        assert (lean.rounds, lean.messages, lean.bits, lean.max_fanin) == (
            fresh.rounds,
            fresh.messages,
            fresh.bits,
            fresh.max_fanin,
        )
        assert (lean.informed == fresh.informed).all()

    def test_vector_engine_topology_eligibility(self):
        # Topology-capable batch runners (push-pull, the cluster pipeline)
        # ride the vector engine on restricted graphs under global
        # addressing...
        s = run_replications(
            256, "push-pull", reps=2, topology=Ring(k=2), engine="vector"
        )
        assert s.engine == "vector" and s.reps == 2
        assert (
            run_replications(256, "push-pull", reps=2, topology=Ring(k=2)).engine
            == "vector"
        )
        # ...but topology-restricted direct addressing needs the engine's
        # reachability oracle, so the vector path refuses it.
        with pytest.raises(ValueError, match="vector engine unavailable"):
            run_replications(
                256,
                "push-pull",
                reps=2,
                topology=Ring(k=2),
                direct_addressing="topology",
                engine="vector",
            )
        assert (
            run_replications(
                256,
                "push-pull",
                reps=2,
                topology=Ring(k=2),
                direct_addressing="topology",
            ).engine
            == "reset"
        )

    def test_parallel_sweep_bit_identical_across_workers(self):
        specs = [
            RunSpec(
                algorithm="push-pull",
                n=256,
                seed=seed,
                topology=RandomRegular(d=6),
            )
            for seed in range(4)
        ] + [
            RunSpec(algorithm="cluster2", n=256, seed=0, topology="torus")
        ]
        serial = execute(specs, workers=1)
        parallel = execute(specs, workers=2)
        assert serial == parallel
        assert "@random-regular(d=6)" in specs[0].describe()

    def test_scenario_presets(self):
        ring = get_scenario("ring-broadcast")
        assert ring.topology == Ring(k=4)
        report = run_scenario("sparse-regular-aggregation")
        assert report.extras["converged"]
        with pytest.raises(ValueError, match="complete contact graph"):
            from repro.workloads.scenarios import Scenario

            Scenario(
                name="bad",
                description="d",
                n=256,
                algorithm="median-counter",
                message_bits=256,
                topology="ring",
            )

    def test_cli_topology_flags(self, capsys):
        rc = cli_main(
            [
                "run",
                "--n",
                "256",
                "--algorithm",
                "push-pull",
                "--topology",
                "ring",
                "--topology-arg",
                "k=4",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "topology: ring(k=4)" in out

    def test_cli_list_topologies(self, capsys):
        assert cli_main(["list-topologies"]) == 0
        out = capsys.readouterr().out
        assert "random-regular" in out and "complete-graph-only" in out

    def test_cli_incompatible_pair_clean_error(self, capsys):
        rc = cli_main(
            [
                "run",
                "--n",
                "256",
                "--algorithm",
                "median-counter",
                "--topology",
                "torus",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err
        assert "Traceback" not in captured.err


class TestReviewHardening:
    """Regression pins for the review findings on this PR: lazy edge
    keys, deterministic-graph reuse across reset, k-weighted vector
    chunking, and the sweep CLI's clean config errors."""

    def test_edge_keys_built_lazily(self):
        g = Ring(k=2).bind(64, make_rng(0))
        assert g._edge_keys_cache is None  # global-addressing runs never pay it
        assert g.reachable(np.array([0]), np.array([1]))[0]
        assert g._edge_keys_cache is not None

    def test_reset_keeps_deterministic_graph_rebuilds_random(self):
        ring_net = Network(64, rng=0, topology=Ring(k=2))
        before = ring_net.graph
        ring_net.reset(1)
        assert ring_net.graph is before  # identical CSR, reused
        rr_net = Network(64, rng=0, topology=RandomRegular(d=4))
        before = rr_net.graph
        rr_net.reset(1)
        assert rr_net.graph is not before  # random graphs are per-seed

    def test_deterministic_reuse_stays_bit_identical(self):
        engine = ReplicationEngine(256, "push-pull", topology=Ring(k=4))
        engine.run(9)  # warm: seed 3 below runs on the reused graph
        lean = engine.run(3)
        fresh = broadcast(256, "push-pull", seed=3, topology=Ring(k=4))
        assert (lean.rounds, lean.messages, lean.bits) == (
            fresh.rounds,
            fresh.messages,
            fresh.bits,
        )
        assert (lean.informed == fresh.informed).all()

    def test_vector_chunking_weights_k_rumor_by_k(self):
        from repro.sim.batch import batch_size
        from repro.tasks.state import KRumorState

        k = 16
        weight = KRumorState.elements_per_node({"k": k})
        assert weight == k
        # The budget bounds R * n * k: with elems for exactly two reps'
        # (n, k) slabs, batches are 2 reps, not 2 * k.
        assert batch_size(256 * weight, 10, max_elems=2 * 256 * k) == 2
        # And the weighted path still covers every replication.
        s = run_replications(
            128, "push-pull", reps=5, task="k-rumor",
            task_kwargs={"k": k}, engine="vector", batch_elems=2 * 128 * k,
        )
        assert s.reps == 5 and s.success_rate == 1.0

    def test_cli_sweep_incompatible_pair_clean_error(self, capsys):
        rc = cli_main(
            [
                "sweep",
                "--algorithms",
                "median-counter",
                "--ns",
                "512",
                "--topology",
                "ring",
                "--topology-arg",
                "k=2",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err and "complete contact graph" in captured.err
