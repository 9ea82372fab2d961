"""E17 — the cluster pipeline on the vector engine.

Two claims pinned here, mirroring E12/E13 for the paper's actual
algorithm instead of the push-pull baseline:

1. **Amortised batched-cluster speedup** (E17) — at n=2^14, R=50, the
   batched ``(R, n)`` cluster2 runner beats the sequential reset engine
   by >= 2x amortised per replication, while staying statistically
   equivalent (success rate, round/message means).  The sharded path
   (``workers=``) is reported in the same table.

2. **n = 2^18 completes** (E17b) — a quarter-million-node Cluster2
   broadcast runs to full coverage through the vector engine and lands
   inside the w.h.p. acceptance envelopes of the statistical harness
   (``tests/test_whp_bounds.py`` shapes: O(log n) round quantiles,
   O(log log n) messages per node).

``REPRO_E17_N`` / ``REPRO_E17_REPS`` / ``REPRO_E17_SCALE_N`` shrink the
grid for constrained CI legs; the acceptance asserts stay as written.
"""

from __future__ import annotations

import math
import os
import resource
import time

from bench_common import emit, trajectory_note
from repro.analysis.tables import Table
from repro.core.broadcast import run_replications

E17_N = int(os.environ.get("REPRO_E17_N", str(2**14)))
E17_REPS = int(os.environ.get("REPRO_E17_REPS", "50"))
E17_SCALE_N = int(os.environ.get("REPRO_E17_SCALE_N", str(2**18)))

#: Acceptance envelopes, same shapes (and constants) as the whp harness.
CLUSTER2_C_ROUNDS = 8.0
CLUSTER2_C_MSGS = 8.0


def _peak_rss_mib() -> float:
    """High-water RSS of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _engine_seconds(engine: str, **kw) -> "tuple[float, object]":
    start = time.perf_counter()
    summary = run_replications(E17_N, "cluster2", reps=E17_REPS, engine=engine, **kw)
    return time.perf_counter() - start, summary


def test_e17_vector_cluster_speedup():
    # Warm up allocators and imports before timing.
    run_replications(E17_N, "cluster2", reps=2, engine="vector")
    run_replications(E17_N, "cluster2", reps=1, engine="reset")

    reset, reset_summary = _engine_seconds("reset")
    vector, vector_summary = _engine_seconds("vector")
    sharded, sharded_summary = _engine_seconds("vector", workers=2)

    table = Table(
        title=f"E17: amortised per-replication cost (cluster2, n={E17_N}, R={E17_REPS})",
        columns=["engine", "total (s)", "ms/rep", "speedup vs reset"],
        caption="reset = sequential engine, one network reset per seed "
        "(bit-identical per seed); vector = batched (R,n) cluster runner (statistically "
        "equivalent); vector x2 workers = same shard plan fanned across a "
        "process pool.",
    )
    for name, secs in [
        ("reset (sequential)", reset),
        ("vector (batched)", vector),
        ("vector (workers=2)", sharded),
    ]:
        table.add(
            name,
            f"{secs:.2f}",
            f"{1e3 * secs / E17_REPS:.2f}",
            f"{reset / secs:.2f}x",
        )
    emit(table, "E17_vector_cluster")
    trajectory_note(
        "E17_vector_cluster",
        per_rep_ms={
            "reset": round(1e3 * reset / E17_REPS, 3),
            "vector": round(1e3 * vector / E17_REPS, 3),
            "vector_workers2": round(1e3 * sharded / E17_REPS, 3),
        },
        speedup_vector_vs_reset=round(reset / vector, 2),
        n=E17_N,
        reps=E17_REPS,
    )

    # Sanity: all engines actually broadcast.
    assert reset_summary.success_rate == 1.0
    assert vector_summary.success_rate > 0.9
    # Statistical agreement between the executors (same distribution).
    assert abs(
        vector_summary.spread_rounds.mean - reset_summary.spread_rounds.mean
    ) <= 0.15 * reset_summary.spread_rounds.mean
    assert abs(
        vector_summary.messages_per_node.mean - reset_summary.messages_per_node.mean
    ) <= 0.15 * reset_summary.messages_per_node.mean
    # The sharded run replays the serial chunk plan: identical summary.
    assert sharded_summary.spread_rounds.mean == vector_summary.spread_rounds.mean
    assert sharded_summary.successes == vector_summary.successes
    # Acceptance: >= 2x amortised per-replication speedup over the
    # sequential reset engine.
    assert reset / vector >= 2.0, (
        f"batched cluster2 {1e3 * vector / E17_REPS:.2f} ms/rep vs reset "
        f"{1e3 * reset / E17_REPS:.2f} ms/rep — below the 2x acceptance bar"
    )


def test_e17_scale_cluster2_2_18():
    reps = 3
    start = time.perf_counter()
    summary = run_replications(E17_SCALE_N, "cluster2", reps=reps, engine="vector")
    secs = time.perf_counter() - start

    log2n = math.log2(E17_SCALE_N)
    loglog = math.log2(log2n)
    table = Table(
        title=f"E17b: Cluster2 at n={E17_SCALE_N} (vector engine)",
        columns=[
            "n", "reps", "total (s)", "s/rep", "spread q90",
            "msgs/node", "success", "peak RSS (MiB)",
        ],
        caption="The paper's algorithm at production scale on the batched "
        "executor; envelopes as in the whp statistical harness.",
    )
    table.add(
        E17_SCALE_N,
        reps,
        f"{secs:.2f}",
        f"{secs / reps:.2f}",
        f"{summary.spread_rounds.quantile(0.9):.0f}",
        f"{summary.messages_per_node.mean:.2f}",
        f"{summary.success_rate:.2f}",
        f"{_peak_rss_mib():.0f}",
    )
    emit(table, "E17b_vector_cluster_scale")
    trajectory_note(
        "E17b_vector_cluster_scale",
        n=E17_SCALE_N,
        reps=reps,
        per_rep_ms=round(1e3 * secs / reps, 1),
    )

    # Acceptance: completes, inside the whp-harness envelopes.
    assert summary.success_rate == 1.0, f"cluster2 at n={E17_SCALE_N} did not complete"
    assert summary.spread_rounds.quantile(0.9) <= CLUSTER2_C_ROUNDS * log2n
    assert summary.spread_rounds.minimum >= log2n - 1
    assert summary.messages_per_node.mean <= CLUSTER2_C_MSGS * loglog
