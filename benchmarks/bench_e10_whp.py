"""E10 — the "with high probability" claims, measured across many seeds.

Every guarantee in the paper holds w.h.p. (probability ``>= 1 - n^-C``).
Empirically that means the success rate across independent seeds should
be indistinguishable from 1 and *not degrade* as n grows.  This bench
runs Cluster1/Cluster2 across 20 seeds per n and reports success rates
with Wilson 95% intervals, plus the spread of the round counts
(concentration — w.h.p. bounds also imply small variance).
"""

from __future__ import annotations

import pytest

from bench_common import bench_spec, emit, grouped_report_sweep
from repro.analysis.stats import summarize, wilson_interval
from repro.analysis.tables import Table
from repro.core.broadcast import broadcast

NS = [2**10, 2**12, 2**14]
SEEDS = list(range(20))
ALGOS = ["cluster1", "cluster2"]


@pytest.fixture(scope="module")
def runs():
    cells = [(algo, n) for algo in ALGOS for n in NS]
    return grouped_report_sweep(
        cells, lambda cell, s: bench_spec(cell[0], cell[1], s), SEEDS
    )


def test_e10_table(runs):
    table = Table(
        title=f"E10: w.h.p. success across {len(SEEDS)} seeds",
        columns=[
            "algorithm",
            "n",
            "successes",
            "success rate (Wilson 95%)",
            "rounds mean±sd",
            "rounds min..max",
        ],
        caption=(
            "w.h.p. claims imply near-1 success rates that do not degrade "
            "with n, and concentrated round counts."
        ),
    )
    for algo in ALGOS:
        for n in NS:
            reports = runs[(algo, n)]
            successes = sum(r.success for r in reports)
            lo, hi = wilson_interval(successes, len(reports))
            rounds = summarize([r.rounds for r in reports])
            table.add(
                algo,
                n,
                f"{successes}/{len(reports)}",
                f"[{lo:.3f}, {hi:.3f}]",
                f"{rounds.mean:.1f}±{rounds.std:.1f}",
                f"{rounds.minimum:.0f}..{rounds.maximum:.0f}",
            )
    emit(table, "E10_whp")

    for algo in ALGOS:
        for n in NS:
            reports = runs[(algo, n)]
            successes = sum(r.success for r in reports)
            # allow at most one tail-event failure per cell
            assert successes >= len(SEEDS) - 1, (algo, n)
            # concentration: round spread well within 2x of the mean
            rounds = summarize([r.rounds for r in reports])
            assert rounds.maximum <= 2 * rounds.mean


def test_e10_cluster1_run(benchmark):
    report = benchmark(lambda: broadcast(2**12, "cluster1", seed=7))
    assert report.success
