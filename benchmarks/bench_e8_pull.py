"""E8 — the doubly-exponential PULL endgame (Lemma 8).

Claim reproduced: with fraction ``x`` of nodes unclustered, one PULL round
leaves at most ``~2x^2`` unclustered (w.h.p. while counts are large), so
``Theta(log log n)`` rounds finish from any constant deficit.  The table
tracks the measured fraction per round against the ``2x^2`` ceiling, from
two different starting deficits.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_common import emit
from repro.analysis.tables import Table
from repro.core.clustering import UNCLUSTERED, Clustering
from repro.core.phases import SequentialBackend, pull
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Simulator
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.rng import make_rng

N = 2**16


def run_pull(start_fraction: float, seed: int):
    net = Network(N, rng=seed)
    sim = Simulator(net, make_rng(seed + 1), Metrics(N))
    cl = Clustering(net)
    cl.set_follow(np.s_[:], 0)  # a giant cluster...
    k = int(start_fraction * N)
    cl.set_follow(np.s_[N - k :], UNCLUSTERED)  # ...minus the starting deficit
    sim.telemetry = Telemetry().begin_run({})
    pull(SequentialBackend(sim, cl), rounds=12)
    fractions = [start_fraction] + [
        e["data"]["unclustered"] / N
        for e in sim.telemetry.events
        if e["kind"] == "pull.round"
    ]
    return fractions, sim


@pytest.fixture(scope="module")
def decays():
    return {x0: run_pull(x0, seed=7)[0] for x0 in (0.25, 0.10)}


def test_e8_table(decays):
    table = Table(
        title=f"E8: PULL endgame — unclustered fraction per round (n={N})",
        columns=["round", "x (start 0.25)", "2x^2 bound", "x (start 0.10)", "2x^2 bound"],
        caption="Lemma 8: x -> ~x^2 per round; ~loglog n rounds from any constant deficit.",
    )
    a, b = decays[0.25], decays[0.10]
    rows = max(len(a), len(b))
    prev_a = prev_b = None
    for t in range(rows):
        xa = a[t] if t < len(a) else 0.0
        xb = b[t] if t < len(b) else 0.0
        table.add(
            t,
            f"{xa:.6f}",
            f"{2*prev_a*prev_a:.6f}" if prev_a is not None else "-",
            f"{xb:.6f}",
            f"{2*prev_b*prev_b:.6f}" if prev_b is not None else "-",
        )
        prev_a, prev_b = xa, xb
    emit(table, "E8_pull_squaring")

    for series in decays.values():
        for x, x_next in zip(series, series[1:]):
            if x * N >= 128:  # concentration regime
                assert x_next <= 2.5 * x * x
        assert series[-1] == 0.0  # everyone joined within the 12 rounds


def test_e8_pull_run(benchmark):
    fractions = benchmark(lambda: run_pull(0.25, seed=3)[0])
    assert fractions[-1] == 0.0
