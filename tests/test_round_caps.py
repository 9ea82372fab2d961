"""The one default round-cap rule (:mod:`repro.sim.caps`).

A base cap is the complete-graph schedule; a dissemination cap grows by
``ROUNDS_PER_HOP`` per hop by which the bound graph's diameter hint
exceeds ``ceil(log2 n)``.  Under it, every uniform dissemination run on
a ring or a torus finishes, where n-only caps stopped it unfinished.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.broadcast import broadcast, run_replications
from repro.sim.caps import ROUNDS_PER_HOP, round_cap
from repro.sim.rng import make_rng
from repro.sim.topology import (
    ContactGraph,
    ErdosRenyiGnp,
    RandomRegular,
    Ring,
    Topology,
    Torus2D,
    _csr_from_edges,
)

N = 2**8
RESTRICTED = {"ring1": Ring(k=1), "ring4": Ring(k=4), "torus": Torus2D()}
#: (algorithm, task settings) of every cell that must finish under the
#: default cap on each restricted graph.
CELLS = {
    "push": ("push", {}),
    "pull": ("pull", {}),
    "push-pull": ("push-pull", {}),
    "push-pull-k-rumor": ("push-pull", {"task": "k-rumor", "task_kwargs": {"k": 4}}),
    "push-pull-min-max": ("push-pull", {"task": "min-max"}),
    "cluster2-min-max": ("cluster2", {"task": "min-max"}),
}


def _bind(topology, n):
    return topology.bind(n, make_rng(0))


class TestRule:
    def test_no_graph_is_the_base_cap(self):
        for n in (1, 2, 1000, 2**16):
            assert round_cap("push-pull", n) == math.ceil(math.log(max(n, 2), 3)) + 10
            assert round_cap("k-rumor", n, k=4) == round_cap("uniform", n) + 3
            assert round_cap("push-sum", n, tol=1e-3) == (
                4 * (math.ceil(math.log2(max(n, 2))) + 10) + 24
            )

    @pytest.mark.parametrize(
        "topology, n",
        [(RandomRegular(d=8), 2**12), (ErdosRenyiGnp(), 1000), (Torus2D(), 16)],
    )
    def test_shallow_graphs_keep_the_base_cap(self, topology, n):
        graph = _bind(topology, n)
        assert graph.diameter_hint <= math.ceil(math.log2(n))
        for schedule in ("push", "pull", "push-pull", "uniform", "cluster-task"):
            assert round_cap(schedule, n, graph) == round_cap(schedule, n)

    def test_dissemination_grows_per_hop_beyond_the_clique_horizon(self):
        graph = _bind(Ring(k=4), 2**9)
        assert graph.diameter_hint == 64
        excess = ROUNDS_PER_HOP * (64 - 9)
        for schedule in ("push", "pull", "push-pull", "uniform", "cluster-task"):
            assert round_cap(schedule, 2**9, graph) == round_cap(schedule, 2**9) + excess
        assert round_cap("k-rumor", 2**9, graph, k=4) == (
            round_cap("k-rumor", 2**9, k=4) + excess
        )
        # The ring presets' derived cap.
        assert round_cap("push-pull", 2**9, graph) == 181

    def test_averaging_ignores_the_graph(self):
        graph = _bind(Ring(k=1), 2**10)
        assert round_cap("push-sum", 2**10, graph, tol=1e-2) == round_cap(
            "push-sum", 2**10, tol=1e-2
        )

    def test_a_bind_without_a_hint_keeps_the_base_cap(self):
        class Path(Topology):
            name = "path"

            def bind(self, n, rng):
                u = np.arange(n - 1)
                return ContactGraph("path", n, *_csr_from_edges(n, u, u + 1))

        graph = _bind(Path(), 64)
        assert graph.diameter_hint is None
        assert round_cap("push-pull", 64, graph) == round_cap("push-pull", 64)

    def test_an_explicit_max_rounds_wins(self):
        report = broadcast(N, "push-pull", seed=0, topology=Ring(k=1), max_rounds=5)
        assert report.rounds == 5 and not report.success


@pytest.mark.parametrize("graph", sorted(RESTRICTED))
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_restricted_graphs_finish_under_the_default_cap(cell, graph):
    algorithm, settings = CELLS[cell]
    for seed in range(5):
        report = broadcast(
            N,
            algorithm,
            seed=seed,
            topology=RESTRICTED[graph],
            **settings,
        )
        assert report.success, (cell, graph, seed, report.rounds)


@pytest.mark.parametrize("graph", ["ring4", "torus"])
def test_vector_push_pull_finishes_under_the_default_cap(graph):
    summary = run_replications(
        N, "push-pull", reps=4, engine="vector", topology=RESTRICTED[graph]
    )
    assert summary.success_rate == 1.0
