"""E3 — bit-complexity (Theorem 2's O(nb) total bits).

Claim reproduced: Cluster2's total bit count is O(n*b) — linear in both
the network size and the payload size, with the payload term dominating
once ``b >> log n`` (the paper's ``b = Omega(log n)`` regime).  For
comparison, [10]'s median-counter costs Theta(n*b*log log n) bits (every
transmission carries the rumor for ~loglog n transmissions per node) and
the Avin-Elsässer profile costs O(n log^1.5 n + n*b*log log n).
"""

from __future__ import annotations

import math

import pytest

from bench_common import emit, standard_sweep
from repro.analysis.runner import aggregate
from repro.analysis.tables import Table
from repro.core.broadcast import broadcast

NS = [2**10, 2**12, 2**14]
BS = [128, 1024, 8192]


@pytest.fixture(scope="module")
def grid():
    out = {}
    for b in BS:
        records = standard_sweep(["cluster2", "median-counter"], NS, [0, 1], message_bits=b)
        out[b] = aggregate(records)
    return out


def test_e3_table(grid):
    table = Table(
        title="E3: total bits / (n*b) — Cluster2's O(nb) claim",
        columns=["algorithm", "b"] + [f"n=2^{int(math.log2(n))}" for n in NS],
        caption=(
            "Entries are bits/(n*b): bounded constant for Cluster2 (O(nb)); "
            "growing ~loglog n for median-counter."
        ),
    )
    ratios = {}
    for algo in ("cluster2", "median-counter"):
        for b in BS:
            row = []
            for n in NS:
                agg = [r for r in grid[b] if r.algorithm == algo and r.n == n]
                ratio = agg[0].bits_per_node.mean / b
                row.append(ratio)
            ratios[(algo, b)] = row
            table.add(algo, b, *[f"{v:.2f}" for v in row])
    emit(table, "E3_bits")

    # Cluster2: bits/(nb) bounded by a constant once b dominates headers.
    for n_idx in range(len(NS)):
        assert ratios[("cluster2", 8192)][n_idx] <= 8
    # and (nearly) flat in n:
    big_b = ratios[("cluster2", 8192)]
    assert max(big_b) <= 1.6 * min(big_b) + 0.5
    # median-counter pays ~2 transmissions/node/round for loglog-ish more
    # rounds: strictly more rumor copies than cluster2 at every n.
    for n_idx in range(len(NS)):
        assert ratios[("median-counter", 8192)][n_idx] > big_b[n_idx]


def test_e3_big_payload_run(benchmark):
    report = benchmark(
        lambda: broadcast(2**12, "cluster2", seed=0, message_bits=65536)
    )
    # O(nb): within a constant of one payload per node
    assert report.bits <= 8 * 2**12 * 65536
