"""E1 — round-complexity vs n (Theorem 2/9 vs Theorem 1 vs classic gossip).

Paper claims reproduced here:

* Cluster1/Cluster2 spread in ``O(log log n)`` rounds (Theorems 9 and 2);
* the Avin-Elsässer profile takes ``Theta(sqrt(log n))`` rounds;
* plain PUSH / PUSH-PULL take ``Theta(log n)`` rounds.

At laptop scale the cluster algorithms' per-iteration constants (~8 engine
rounds per squaring iteration) dominate their absolute round counts, so
the table reports both the measured rounds *and* the internal iteration
counters (the clean log log n quantity), plus least-squares growth-class
fits of each curve.
"""

from __future__ import annotations

import math

import pytest

from bench_common import SEEDS, emit, fill_rounds_table, rounds_table, standard_sweep
from repro.analysis.runner import aggregate, series
from repro.analysis.tables import Table
from repro.analysis.theory import best_growth_class
from repro.core.broadcast import broadcast

NS = [2**8, 2**10, 2**12, 2**14, 2**16]
ALGOS = ["push", "push-pull", "median-counter", "avin-elsasser", "cluster1", "cluster2"]


@pytest.fixture(scope="module")
def records():
    return standard_sweep(ALGOS, NS, SEEDS)


def test_e1_table(records):
    rows = aggregate(records)
    table = rounds_table(
        rows,
        "E1: rounds to inform all nodes vs n",
        caption=(
            "spread rounds = first round with everyone informed; sched = full "
            "schedule for baselines without local termination."
        ),
    )
    fill_rounds_table(table, rows, records)
    emit(table, "E1_rounds")

    fits = Table(
        title="E1b: growth-class fit of spread-rounds(n)",
        columns=["algorithm", "best family", "paper family", "fit a", "fit b", "R^2"],
        caption=(
            "Families fit y = a*f(log2 n)+b. Cluster alg. constants dominate at "
            "laptop n; their iteration counters (E1c) carry the loglog signal."
        ),
    )
    paper_family = {
        "push": "log",
        "push-pull": "log",
        "median-counter": "log",
        "avin-elsasser": "sqrtlog",
        "cluster1": "loglog",
        "cluster2": "loglog",
    }
    for algo in ALGOS:
        ns, ys = series(rows, algo, "spread_rounds")
        best = best_growth_class(ns, ys)
        fits.add(algo, best.family, paper_family[algo], f"{best.a:.2f}", f"{best.b:.2f}", f"{best.r2:.3f}")
    emit(fits, "E1b_fits")

    iters = Table(
        title="E1c: Cluster2 squaring iterations vs n (the Theta(loglog n) counter)",
        columns=["n", "log2 log2 n", "square iterations (mean)"],
    )
    for n in NS:
        vals = [r.extras.get("square_iterations", 0) for r in records if r.algorithm == "cluster2" and r.n == n]
        iters.add(n, f"{math.log2(math.log2(n)):.2f}", f"{sum(vals)/len(vals):.1f}")
    emit(iters, "E1c_iterations")

    # Shape assertions (who wins, what grows):
    push_ns, push_rounds = series(rows, "push", "spread_rounds")
    assert push_rounds[-1] > push_rounds[0] + 0.5 * (math.log2(NS[-1] / NS[0]))
    c2 = {n: y for n, y in zip(*series(rows, "cluster2", "spread_rounds"))}
    for n in NS:
        assert c2[n] <= 40 * math.log2(math.log2(n)) + 25


def test_e1_cluster2_run(benchmark):
    """Wall-clock of one Cluster2 broadcast at n=2^14 (simulator speed)."""
    report = benchmark(lambda: broadcast(2**14, "cluster2", seed=0))
    assert report.success
