"""E16 — contact topologies: the cost of losing the complete graph.

Three claims pinned here:

1. **Complete-graph overhead** — routing the default topology through
   the topology-aware engine costs <= 5% wall-clock vs the pre-topology
   hot path.  The legacy path is faithfully reconstructed in this bench
   (the pre-PR ``random_targets`` body on a ``Network`` subclass plus
   the pre-PR dynamics-only arrival mask patched into ``Round``), the
   same technique E12 used for the legacy rebuild loop.  The two paths
   must also be **bit-identical** — the topology layer only adds
   branches, never draws.
2. **Degree spectrum** — rounds/messages/bits for PUSH-PULL and
   Cluster2 across complete → random-regular(8) → ring(4): what
   restricting the contact graph costs each algorithm, and what
   Cluster2's learned addresses buy (global addressing keeps it within
   a few rounds of the complete graph on an expander, while
   ``direct_addressing="topology"`` collapses it — measured in the same
   table).
3. **Default caps on restricted graphs** — push, pull, push-pull,
   k-rumor and min-max finish on rings and a torus under the default
   round cap, which grows with the graph's diameter hint.
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np

from bench_common import SEEDS, bench_spec, emit, grouped_report_sweep
from repro.analysis.tables import Table
from repro.core.broadcast import broadcast
from repro.core.result import AlgorithmReport
from repro.registry import get_algorithm
from repro.core.constants import LAPTOP
from repro.sim.engine import Metrics, Round, Simulator
from repro.sim.network import Network
from repro.sim.rng import derive_seed, make_rng
from repro.sim.topology import RandomRegular, Ring, Torus2D

N = 2**13
TIMING_REPEATS = 5


class _LegacyNetwork(Network):
    """The pre-topology ``Network``: its ``random_targets``, at today's
    int64 index dtype."""

    def random_targets(self, count, rng, *, exclude=None):
        if exclude is None:
            return rng.integers(0, self.n, size=count, dtype=np.int64)
        exclude = np.asarray(exclude)
        targets = rng.integers(0, self.n - 1, size=count, dtype=np.int64)
        targets += targets >= exclude
        return targets


def _legacy_arrival_mask(self, srcs, dsts):
    """The pre-topology arrival mask: dynamics-aware only."""
    net = self._sim.net
    if self._sim.dynamics is None:
        return net.alive[dsts]
    valid = (dsts >= 0) & (dsts < net.n)
    if valid.all():
        return net.alive[dsts]
    return valid & net.alive[np.where(valid, dsts, 0)]


def _run_current(seed: int, algorithm: str = "push-pull") -> AlgorithmReport:
    return broadcast(N, algorithm, seed=seed)


def _run_legacy(seed: int, algorithm: str = "push-pull") -> AlgorithmReport:
    """One broadcast on the reconstructed pre-topology hot path,
    stream-identical to :func:`_run_current` by construction."""
    net = _LegacyNetwork(N, rng=derive_seed(seed, "net"), rumor_bits=256)
    sim = Simulator(net, make_rng(derive_seed(seed, "algo")), Metrics(net.n))
    with mock.patch.object(Round, "_arrival_mask", _legacy_arrival_mask):
        return get_algorithm(algorithm).run(sim, 0, LAPTOP)


def _best_seconds(fn) -> float:
    """Best-of-N wall clock (min is the standard low-noise estimator)."""
    best = float("inf")
    for rep in range(TIMING_REPEATS):
        start = time.perf_counter()
        fn(rep % len(SEEDS))
        best = min(best, time.perf_counter() - start)
    return best


def test_e16_complete_graph_overhead_within_5pct():
    # Warm up imports/allocators before timing.
    _run_current(0)
    _run_legacy(0)
    current = _best_seconds(_run_current)
    legacy = _best_seconds(_run_legacy)
    table = Table(
        title=f"E16a: complete-graph overhead of the topology path (push-pull, n={N})",
        columns=["path", "best wall-clock (s)", "vs legacy"],
        caption="'legacy' is the faithfully reconstructed pre-topology "
        "hot path (pre-PR random_targets + arrival mask).",
    )
    table.add("pre-topology engine (reconstructed)", f"{legacy:.4f}", "1.00x")
    table.add("topology-aware engine (complete)", f"{current:.4f}", f"{current / legacy:.2f}x")
    emit(table, "E16a_topology_overhead")
    # Acceptance: the complete-graph default through the topology-aware
    # engine stays within 5% (plus a small absolute floor so
    # sub-millisecond jitter cannot flake CI).
    assert current <= legacy * 1.05 + 0.005, (
        f"topology path {current:.4f}s vs legacy {legacy:.4f}s"
    )
    # And the complete default must not change the execution at all.
    a, b = _run_current(1), _run_legacy(1)
    assert (a.rounds, a.messages, a.bits, a.max_fanin) == (
        b.rounds,
        b.messages,
        b.bits,
        b.max_fanin,
    )
    assert (a.informed == b.informed).all()


#: The degree spectrum E16 walks, densest first.  Ring runs at a smaller
#: n (its Theta(n/k) spread makes n=2^13 pointless); push-pull's default
#: cap grows with the ring's diameter, and cluster2 keeps its own
#: construction schedule.
SPECTRUM = [
    ("complete", None, 2**12),
    ("random-regular(8)", RandomRegular(d=8), 2**12),
    ("ring(4)", Ring(k=4), 2**10),
]


def test_e16_degree_spectrum_table():
    table = Table(
        title="E16b: rounds/messages/bits vs contact-graph degree",
        columns=[
            "topology",
            "algorithm",
            "addressing",
            "n",
            "spread",
            "msgs/node",
            "bits/node",
            "informed",
        ],
        caption="Mean over seeds.  Cluster2 under global addressing "
        "(the paper's model) stays near its complete-graph figures on "
        "an expander; under topology-restricted addressing it cannot "
        "reach its learned addresses and collapses — the value of "
        "direct addressing, measured.",
    )
    for label, topology, n in SPECTRUM:
        cells = [("push-pull", "global"), ("cluster2", "global")]
        if topology is not None:
            cells.append(("cluster2", "topology"))
        for algorithm, addressing in cells:
            reports = [
                broadcast(
                    n,
                    algorithm,
                    seed=seed,
                    topology=topology,
                    direct_addressing=addressing,
                )
                for seed in SEEDS
            ]
            table.add(
                label,
                algorithm,
                addressing,
                n,
                f"{sum(r.spread_rounds for r in reports) / len(reports):.1f}",
                f"{sum(r.messages_per_node for r in reports) / len(reports):.2f}",
                f"{sum(r.bits / r.n for r in reports) / len(reports):.0f}",
                f"{sum(r.informed_fraction for r in reports) / len(reports):.4f}",
            )
    emit(table, "E16b_topology_spectrum", fmt="both")
    # Headline sanity (not wall-clock): push-pull completes on the
    # expander in O(log n)-ish rounds and on the ring in Theta(n/k).
    rr = broadcast(2**12, "push-pull", seed=0, topology=RandomRegular(d=8))
    assert rr.success
    ring = broadcast(2**10, "push-pull", seed=0, topology=Ring(k=4))
    assert ring.success and ring.spread_rounds > 4 * rr.spread_rounds


#: E16c's grid: the uniform dissemination cells on the restricted graphs
#: whose diameter exceeds the complete graph's log2 n horizon.
CAP_N = 2**10
CAP_SEEDS = range(20)
CAP_GRAPHS = {"ring(1)": Ring(k=1), "ring(4)": Ring(k=4), "torus": Torus2D()}
CAP_CELLS = {
    "push": ("push", {}),
    "pull": ("pull", {}),
    "push-pull": ("push-pull", {}),
    "k-rumor (k=4)": ("push-pull", {"task": "k-rumor", "task_kwargs": {"k": 4}}),
    "min-max": ("push-pull", {"task": "min-max"}),
}


def _cap_spec(key, seed):
    graph, cell = key
    algorithm, settings = CAP_CELLS[cell]
    return bench_spec(algorithm, CAP_N, seed, topology=CAP_GRAPHS[graph], **settings)


def test_e16_default_caps_finish_on_restricted_graphs():
    keys = [(graph, cell) for graph in CAP_GRAPHS for cell in CAP_CELLS]
    reports = grouped_report_sweep(keys, _cap_spec, seeds=CAP_SEEDS)
    table = Table(
        title=f"E16c: uniform gossip under default round caps (n={CAP_N})",
        columns=["topology", "cell", "hint", "succeeded", "max rounds", "max spread / hint"],
        caption="Default caps (repro.sim.caps) grow by 3 rounds per hop of the "
        "graph's diameter hint beyond ceil(log2 n); no cell passes max_rounds.  "
        f"Gate: >= 19 of {len(CAP_SEEDS)} seeds succeed in every cell.",
    )
    short = []
    for graph, cell in keys:
        runs = reports[graph, cell]
        hint = CAP_GRAPHS[graph].diameter_hint(CAP_N)
        done = [r for r in runs if r.success]
        table.add(
            graph,
            cell,
            hint,
            f"{len(done)}/{len(runs)}",
            max(r.rounds for r in runs),
            f"{max((r.spread_rounds for r in done), default=0) / hint:.2f}",
        )
        if len(done) < 19:
            short.append((graph, cell, len(done)))
    emit(table, "E16c_topology_caps")
    assert not short, short


def emit_tables() -> None:
    """Entry point for running the bench as a script."""
    test_e16_complete_graph_overhead_within_5pct()
    test_e16_degree_spectrum_table()
    test_e16_default_caps_finish_on_restricted_graphs()


if __name__ == "__main__":
    emit_tables()
