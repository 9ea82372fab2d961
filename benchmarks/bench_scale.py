"""E12/E13 — the scale tier (network reuse + replication executors).

Two claims pinned here:

1. **Amortised replication speedup** (E12) — at n=2^14, R=50, the
   replication layer beats the historical rebuild-per-seed loop by >= 2x
   amortised per replication.  The baseline is reconstructed faithfully:
   a fresh :class:`~repro.sim.network.Network` per seed whose uids come
   from the pre-scale-tier scalar-loop assignment
   (:meth:`~repro.sim.ids.IdSpace.assign_reference` — the executable
   spec the vectorised ``assign`` is pinned against), exactly what every
   bench paid per seed before this tier existed.  The table also reports
   the sequential reset engine (bit-identical per seed) and today's
   rebuild loop (a fresh ``broadcast()`` per seed: vectorised assign, no
   reuse — timed here directly, since it gives the reset engine's
   results) for honesty about where the win comes from.

2. **n = 2^20 completes** (E13) — a million-node PUSH-PULL broadcast
   runs to full coverage through the vectorised executor, with peak RSS
   reported per network size (the memory budget table quoted in the
   README's "Scale tier" section).
"""

from __future__ import annotations

import resource
import time

import numpy as np

from bench_common import emit
from repro.analysis.tables import Table
from repro.core.broadcast import broadcast, run_replications
from repro.sim.ids import IdSpace

E12_N = 2**14
E12_REPS = 50
E13_NS = [2**16, 2**18, 2**20]


def _peak_rss_mib() -> float:
    """High-water RSS of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _rebuild_loop(n: int, reps: int) -> float:
    """A fresh ``broadcast()`` per seed (a one-seed engine each time, so a
    fresh network and simulator).  Returns total seconds; results are
    bit-identical to the reset engine's."""
    start = time.perf_counter()
    for seed in range(reps):
        broadcast(n, "push-pull", seed=seed)
    return time.perf_counter() - start


def _legacy_rebuild_loop(n: int, reps: int) -> float:
    """The pre-scale-tier replication loop, reconstructed faithfully:
    :func:`_rebuild_loop` with the scalar-loop uid assignment swapped
    back in — exactly what every replication paid before this tier."""
    vectorised_assign = IdSpace.assign

    def legacy_assign(self, rng, out=None):
        uids = IdSpace.assign_reference(self, rng)
        if out is not None:
            out[:] = uids
            return out
        return uids

    IdSpace.assign = legacy_assign
    try:
        return _rebuild_loop(n, reps)
    finally:
        IdSpace.assign = vectorised_assign


def _engine_seconds(engine: str, n: int, reps: int) -> "tuple[float, object]":
    start = time.perf_counter()
    summary = run_replications(n, "push-pull", reps=reps, engine=engine)
    return time.perf_counter() - start, summary


def test_e12_replication_speedup():
    # Warm up allocators and imports before timing.
    run_replications(E12_N, "push-pull", reps=2, engine="vector")
    broadcast(E12_N, "push-pull", seed=0)

    legacy = _legacy_rebuild_loop(E12_N, E12_REPS)
    rebuild = _rebuild_loop(E12_N, E12_REPS)
    reset, reset_summary = _engine_seconds("reset", E12_N, E12_REPS)
    vector, vector_summary = _engine_seconds("vector", E12_N, E12_REPS)

    table = Table(
        title=f"E12: amortised per-replication cost (push-pull, n={E12_N}, R={E12_REPS})",
        columns=["engine", "total (s)", "ms/rep", "speedup vs legacy"],
        caption="legacy = pre-scale-tier loop (fresh network per seed, "
        "scalar-loop uid assignment); rebuild = a fresh broadcast() per seed; "
        "reset = sequential engine, one network reset per seed (bit-identical "
        "per seed); "
        "vector = batched (R,n) executor (statistically equivalent).",
    )
    for name, secs in [
        ("legacy rebuild loop", legacy),
        ("rebuild (current)", rebuild),
        ("reset (network reuse)", reset),
        ("vector (batched)", vector),
    ]:
        table.add(
            name,
            f"{secs:.2f}",
            f"{1e3 * secs / E12_REPS:.2f}",
            f"{legacy / secs:.2f}x",
        )
    emit(table, "E12_replication_speedup")

    # Sanity: both engines actually broadcast.
    assert reset_summary.success_rate == 1.0
    assert vector_summary.success_rate > 0.9
    # Statistical agreement between the executors (same distribution).
    assert abs(
        vector_summary.spread_rounds.mean - reset_summary.spread_rounds.mean
    ) <= 2.0
    # Acceptance: >= 2x amortised per-replication speedup over the
    # rebuild-per-seed loop.
    assert legacy / vector >= 2.0, (
        f"vector engine {1e3 * vector / E12_REPS:.2f} ms/rep vs legacy "
        f"{1e3 * legacy / E12_REPS:.2f} ms/rep — below the 2x acceptance bar"
    )
    assert legacy / reset >= 1.0, "reset engine slower than the legacy loop"


def test_e13_scale_to_2_20():
    table = Table(
        title="E13: scale demonstration — PUSH-PULL to n=2^20 (vector engine)",
        columns=[
            "n", "reps", "total (s)", "s/rep", "spread q50",
            "msgs/node", "success", "peak RSS (MiB)",
        ],
        caption="Peak RSS is the process high-water mark after the row's "
        "run (monotone; rows execute in ascending n).  The memory budget "
        "table quoted in README's Scale tier section.",
    )
    completed_2_20 = None
    for n in E13_NS:
        reps = 4 if n < 2**20 else 2
        start = time.perf_counter()
        summary = run_replications(n, "push-pull", reps=reps, engine="vector")
        secs = time.perf_counter() - start
        table.add(
            n,
            reps,
            f"{secs:.2f}",
            f"{secs / reps:.2f}",
            f"{summary.spread_rounds.quantile(0.5):.0f}",
            f"{summary.messages_per_node.mean:.2f}",
            f"{summary.success_rate:.2f}",
            f"{_peak_rss_mib():.0f}",
        )
        if n == 2**20:
            completed_2_20 = summary
    emit(table, "E13_scale_demonstration")

    # Acceptance: a completed n=2^20 push-pull broadcast.
    assert completed_2_20 is not None
    assert completed_2_20.success_rate == 1.0, "n=2^20 broadcast did not complete"
    # The spreading time is logarithmic: ~log3 n + O(log log n) rounds.
    assert completed_2_20.spread_rounds.maximum <= np.log(2**20) / np.log(3) + 10


def test_e13_million_node_run(benchmark):
    summary = benchmark.pedantic(
        lambda: run_replications(2**20, "push-pull", reps=1, engine="vector"),
        rounds=1,
        iterations=1,
    )
    assert summary.success_rate == 1.0
