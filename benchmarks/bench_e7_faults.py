"""E7 — fault tolerance (Theorem 19).

Claim reproduced: with ``F`` obliviously failed nodes, Cluster2 still
clusters/informs all but ``o(F)`` survivors while preserving its round and
message guarantees.  The table sweeps the failure fraction and reports
the uninformed-survivor count against F.
"""

from __future__ import annotations

import pytest

from bench_common import bench_spec, emit, grouped_report_sweep, report_sweep
from repro.analysis.tables import Table
from repro.core.broadcast import broadcast

N = 2**13
FRACTIONS = [0.01, 0.05, 0.10, 0.20, 0.30]
SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def runs():
    return grouped_report_sweep(
        FRACTIONS,
        lambda frac, s: bench_spec(
            "cluster2", N, s, failures=int(frac * N), source=None
        ),
        SEEDS,
    )


@pytest.fixture(scope="module")
def clean():
    return report_sweep([bench_spec("cluster2", N, s) for s in SEEDS])


def test_e7_table(runs, clean):
    table = Table(
        title=f"E7: Cluster2 under F oblivious failures (n={N})",
        columns=[
            "F",
            "F/n",
            "uninformed survivors (max)",
            "uninformed/F",
            "rounds",
            "msgs/node",
        ],
        caption="Theorem 19: all but o(F) survivors informed; complexity preserved.",
    )
    clean_rounds = sum(r.rounds for r in clean) / len(clean)
    for frac in FRACTIONS:
        F = int(frac * N)
        reports = runs[frac]
        worst = max(r.uninformed_survivors for r in reports)
        table.add(
            F,
            f"{frac:.2f}",
            worst,
            f"{worst / F:.4f}",
            f"{sum(r.rounds for r in reports)/len(reports):.1f}",
            f"{sum(r.messages_per_node for r in reports)/len(reports):.1f}",
        )
    table.add(0, "0.00", 0, "-", f"{clean_rounds:.1f}", f"{sum(r.messages_per_node for r in clean)/len(clean):.1f}")
    emit(table, "E7_fault_tolerance")

    for frac in FRACTIONS:
        F = int(frac * N)
        for r in runs[frac]:
            # the o(F) guarantee, asserted as a strong constant fraction
            assert r.uninformed_survivors <= max(2, F / 8)
            # complexity preserved
            assert r.rounds <= 1.6 * clean_rounds + 10


def test_e7_faulty_run(benchmark):
    report = benchmark(
        lambda: broadcast(
            N, "cluster2", seed=0, failures=N // 10, source=None
        )
    )
    assert report.informed_fraction >= 0.99
