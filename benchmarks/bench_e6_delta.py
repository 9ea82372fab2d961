"""E6 — the Δ / round-complexity trade-off (Lemmas 16-17, Theorems 4/18).

Claims reproduced:

* Cluster3(Δ) computes a Θ(Δ)-clustering with every node clustered, all
  sizes within the Θ(Δ) band, and **no node ever exceeding fan-in Δ**;
* broadcast over the clustering needs ``~log n / log Δ`` main iterations
  (Lemma 17), decreasing in Δ — the trade-off curve of Lemma 16;
* total messages stay O(n).
"""

from __future__ import annotations

import math

import pytest

from bench_common import bench_spec, emit, grouped_report_sweep
from repro.analysis.tables import Table
from repro.analysis.theory import delta_tradeoff_rounds
from repro.core.broadcast import broadcast

N = 2**14
DELTAS = [128, 256, 512, 1024, 2048]
SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def runs():
    return grouped_report_sweep(
        DELTAS, lambda delta, s: bench_spec("cluster3", N, s, delta=delta), SEEDS
    )


def test_e6_table(runs):
    table = Table(
        title=f"E6: Δ-bounded gossip at n={N} (Cluster3 + ClusterPUSH-PULL)",
        columns=[
            "Δ",
            "maxΔ observed",
            "bcast iterations",
            "log n / log Δ",
            "clusters",
            "sizes",
            "msgs/node",
            "informed",
        ],
        caption=(
            "maxΔ observed covers the whole execution (clustering + "
            "broadcast); Lemma 16 says iterations >= log n/log Δ - O(1)."
        ),
    )
    for delta in DELTAS:
        reports = runs[delta]
        iters = [r.extras["main_iterations"] for r in reports]
        dr = reports[0].extras["delta_report"]
        table.add(
            delta,
            max(r.max_fanin for r in reports),
            f"{sum(iters)/len(iters):.1f}",
            f"{delta_tradeoff_rounds(N, delta):.2f}",
            dr.clusters,
            f"[{dr.min_size}..{dr.max_size}]",
            f"{sum(r.messages_per_node for r in reports)/len(reports):.1f}",
            f"{sum(r.informed_fraction for r in reports)/len(reports):.4f}",
        )
    emit(table, "E6_delta_tradeoff")

    for delta in DELTAS:
        for r in runs[delta]:
            assert r.max_fanin <= delta, f"fan-in bound violated at Δ={delta}"
            assert r.success
            assert r.extras["delta_report"].all_clustered
    # the trade-off: iterations never increase with Δ
    mean_iters = [
        sum(r.extras["main_iterations"] for r in runs[d]) / len(SEEDS) for d in DELTAS
    ]
    assert mean_iters[-1] <= mean_iters[0]


def test_e6_cluster3_run(benchmark):
    report = benchmark(lambda: broadcast(N, "cluster3", seed=0, delta=512))
    assert report.max_fanin <= 512
