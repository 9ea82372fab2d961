"""E4 — the state-of-the-art comparison table (paper §1, Theorem 1 vs 2).

The paper's introduction compares, in prose, the complexity profiles of
classic gossip [12], Karp et al. [10], Avin-Elsässer [1] and this paper's
Cluster2.  This bench regenerates that comparison as a measured table at
a fixed n, and asserts the qualitative "who wins" ordering that survives
laptop-scale constants:

* messages/node: push is the worst and grows; cluster2/median-counter flat;
* fan-in: the cluster algorithms exploit Δ up to n-1 (that is the point
  of Section 7's Cluster3, benched in E6);
* every algorithm informs everyone (w.h.p. across the seeds).
"""

from __future__ import annotations

import pytest

from bench_common import SEEDS, emit, fill_rounds_table, rounds_table, standard_sweep
from repro.analysis.runner import aggregate
from repro.analysis.tables import Table
from repro.core.broadcast import broadcast

N = 2**14
ALGOS = [
    "push",
    "pull",
    "push-pull",
    "median-counter",
    "avin-elsasser",
    "cluster1",
    "cluster2",
    "cluster3",
]


@pytest.fixture(scope="module")
def records():
    plain = [a for a in ALGOS if a != "cluster3"]
    recs = standard_sweep(plain, [N], SEEDS)
    recs += standard_sweep(["cluster3"], [N], SEEDS, delta=256)
    return recs


def test_e4_table(records):
    rows = aggregate(records)
    table = rounds_table(rows, f"E4: all algorithms at n={N} (mean of {len(SEEDS)} seeds)")
    fill_rounds_table(table, rows, records)
    table.caption = (
        "Theory columns — push/pull/push-pull: Θ(log n) rounds; "
        "median-counter [10]: Θ(log n) rounds, O(loglog n) msgs; "
        "avin-elsasser [1]: Θ(√log n) rounds & msgs; "
        "cluster1/2 (this paper): Θ(loglog n) rounds, cluster2 O(1) msgs; "
        "cluster3(Δ=256): adds the fan-in bound."
    )
    emit(table, "E4_comparison")

    by_algo = {row.algorithm: row for row in rows}
    # everyone informs everyone, w.h.p.
    for algo in ("push", "push-pull", "median-counter", "cluster1", "cluster2"):
        assert by_algo[algo].success_rate == 1.0, algo
    # message ordering at n=2^14: push worst among rumor-pushing algorithms
    assert by_algo["push"].messages_per_node.mean > by_algo["median-counter"].messages_per_node.mean
    # fan-in: cluster3 bounded by Δ, cluster2 unbounded (n-1)
    assert by_algo["cluster3"].max_fanin <= 256
    assert by_algo["cluster2"].max_fanin == N - 1


def test_e4_push_pull_run(benchmark):
    report = benchmark(lambda: broadcast(N, "push-pull", seed=0))
    assert report.success
