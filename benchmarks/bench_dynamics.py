"""E11 — dynamics overhead and robustness (repro.sim.dynamics).

Two claims pinned here:

1. **Zero-adversity overhead** — carrying the dynamics plumbing leaves
   the engine's wall-clock within 5%.  An *empty* schedule resolves to
   the literal static path (``resolve_schedule`` drops it before a
   driver is even built), so the measured comparison is against an
   **armed-but-idle** driver: a schedule whose only event sits at a
   round the run never reaches.  That run exercises every
   dynamics-present branch (``begin_round`` per commit, the per-op
   ``push_survival``/``pull_survival`` probes, the stale-target
   validity check) while producing byte-identical output, so the delta
   is exactly the plumbing cost.  Absolute numbers land in results/ so
   regressions are visible per-PR.
2. **Robustness overhead** — active schedules (churn, loss, blackout)
   cost rounds and messages, not engine time: the table reports the
   round/message multipliers per preset for PUSH-PULL and Cluster2.
"""

from __future__ import annotations

import time

from bench_common import emit
from repro.analysis.tables import Table
from repro.core.broadcast import broadcast
from repro.sim.dynamics import (
    AdversitySchedule,
    CrashAt,
    get_schedule,
    schedule_names,
)

N = 2**13
SEEDS = [0, 1, 2]
TIMING_REPEATS = 5

#: A driver that is bound and consulted every round/op but never acts:
#: its only event sits at a round no run here ever reaches.
IDLE_SCHEDULE = AdversitySchedule((CrashAt(round=10**9, count=1),))


def _run(schedule, algorithm="push-pull", seed=0):
    return broadcast(N, algorithm, seed=seed, schedule=schedule)


def _best_seconds(schedule, algorithm="push-pull"):
    """Best-of-N wall clock (min is the standard low-noise estimator)."""
    best = float("inf")
    for seed in range(TIMING_REPEATS):
        start = time.perf_counter()
        _run(schedule, algorithm, seed=seed % len(SEEDS))
        best = min(best, time.perf_counter() - start)
    return best


def test_e11_zero_adversity_within_noise():
    # Warm up imports/allocators before timing.
    _run(None)
    _run(IDLE_SCHEDULE)
    plain = _best_seconds(None)
    idle = _best_seconds(IDLE_SCHEDULE)
    table = Table(
        title=f"E11a: zero-adversity engine overhead (push-pull, n={N})",
        columns=["path", "best wall-clock (s)", "vs static"],
        caption="'armed idle' binds a driver whose only event is at round "
        "1e9: every dynamics branch runs, nothing ever fires.",
    )
    table.add("schedule=None (static)", f"{plain:.4f}", "1.00x")
    table.add("armed idle driver", f"{idle:.4f}", f"{idle / plain:.2f}x")
    emit(table, "E11a_dynamics_overhead")
    # Acceptance: carrying a live (but idle) driver costs <= 5% (plus a
    # small absolute floor so sub-millisecond jitter cannot flake CI).
    assert idle <= plain * 1.05 + 0.005, (
        f"armed-idle driver {idle:.4f}s vs static {plain:.4f}s"
    )
    # An idle driver must not change the execution at all — and an empty
    # schedule must resolve to the literal static path:
    a, b, c = _run(None), _run(IDLE_SCHEDULE), _run(AdversitySchedule())
    for other in (b, c):
        assert (a.rounds, a.messages, a.bits, a.max_fanin) == (
            other.rounds,
            other.messages,
            other.bits,
            other.max_fanin,
        )
        assert (a.informed == other.informed).all()


def test_e11_robustness_table():
    table = Table(
        title=f"E11b: round/message overhead per adversity preset (n={N})",
        columns=[
            "schedule",
            "algorithm",
            "spread",
            "x spread",
            "msgs/node",
            "x msgs",
            "informed",
            "crashed",
            "lost",
        ],
        caption="Multipliers vs the same algorithm with no adversity "
        "(mean over seeds).",
    )
    for algorithm in ["push-pull", "cluster2"]:
        clean = [_run(None, algorithm, s) for s in SEEDS]
        clean_spread = sum(r.spread_rounds for r in clean) / len(clean)
        clean_msgs = sum(r.messages_per_node for r in clean) / len(clean)
        for name in schedule_names():
            reports = [_run(get_schedule(name), algorithm, s) for s in SEEDS]
            spread = sum(r.spread_rounds for r in reports) / len(reports)
            msgs = sum(r.messages_per_node for r in reports) / len(reports)
            informed = sum(r.informed_fraction for r in reports) / len(reports)
            table.add(
                name,
                algorithm,
                f"{spread:.1f}",
                f"{spread / clean_spread:.2f}x",
                f"{msgs:.2f}",
                f"{msgs / clean_msgs:.2f}x",
                f"{informed:.4f}",
                max(r.extras.get("dyn_crashed", 0) for r in reports),
                max(r.extras.get("dyn_messages_lost", 0) for r in reports),
            )
            # Robustness floor: whenever the source survived, every preset
            # keeps a large majority of the surviving nodes informed.  (A
            # run whose single initial rumor holder crashed before sharing
            # legitimately informs nobody — that is the model, not a bug.)
            assert all(
                r.informed_fraction > 0.9 for r in reports if r.alive[0]
            ), f"{algorithm} under {name} fell below 90% informed"
    emit(table, "E11_dynamics_robustness")


def test_e11_active_schedule_run(benchmark):
    report = benchmark(
        lambda: _run(get_schedule("lossy-datacenter"), "push-pull")
    )
    assert report.informed_fraction > 0.99
