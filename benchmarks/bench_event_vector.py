"""E21 — the batched event tier: sim_time studies at scale-tier speed.

The claim pinned here: ``run_replications(engine="vector",
scheduler=event)`` runs the event tier *on* the batched ``(R, n)``
executors — the :class:`~repro.sim.schedule.BatchClockOverlay` folds
every round's contacts into per-rep clocks with a handful of numpy ops
— so a ``sim_time`` study over R replications is no longer R sequential
event-scheduler runs.  Gated: the amortised per-rep cost of the vector
event tier must undercut the sequential reset engine under the same
straggler delay model by at least ``REPRO_E21_GATE`` (default 2x) at
``REPRO_E21_N`` x ``REPRO_E21_REPS`` (default 2^14 x 50).

Correctness is asserted before any timing:

1. **Zero-latency bit-identity** — the overlay consumes only its own
   delay streams, so the vector engine with ``constant:0`` produces the
   same summary rows (rounds/messages/bits/success) as the plain
   round-tier vector engine.
2. **Clock agreement** — under the straggler model the vector tier's
   mean ``sim_time`` lands within tolerance of the sequential event
   scheduler's over the same seed range (statistical, never
   stream-identical: the batched executors draw differently).

A scale leg then completes the same straggler study at
``REPRO_E21_SCALE_N`` (default 2^18) — the configuration the sequential
tier cannot touch interactively — and reports its wall-clock as an
informational row.

Timings interleave the two engines over ``REPRO_E21_REPEATS`` batches
(best of two back-to-back runs per engine per batch, the timeit
convention) and gate the **median** paired reset/vector ratio —
pairing cancels clock-frequency drift, and the median shrugs off the
one-off scheduler spikes that a worst-of gate would amplify on a
shared box; the worst ratio is reported alongside.  ``REPRO_E21_N`` /
``REPRO_E21_REPS`` shrink the workload for constrained CI legs; the
gate asserts stay as written.
"""

from __future__ import annotations

import os
import time

from bench_common import emit, trajectory_note
from repro.analysis.tables import Table
from repro.core.broadcast import run_replications
from repro.sim.schedule import EventSchedulerSpec
from repro.sim.topology import ConstantDelay, NodeSlowdownDelay

E21_N = int(os.environ.get("REPRO_E21_N", str(2**14)))
E21_REPS = int(os.environ.get("REPRO_E21_REPS", "50"))
E21_REPEATS = int(os.environ.get("REPRO_E21_REPEATS", "5"))
E21_GATE = float(os.environ.get("REPRO_E21_GATE", "2.0"))
E21_SCALE_N = int(os.environ.get("REPRO_E21_SCALE_N", str(2**18)))
E21_SCALE_REPS = int(os.environ.get("REPRO_E21_SCALE_REPS", "4"))

#: The measured configuration: the straggler tail (2% of nodes 10x
#: slower) — the event tier's flagship study, on the general (not
#: constant fast path) overlay code path.
STRAGGLER = EventSchedulerSpec(
    delay=NodeSlowdownDelay(base=1.0, fraction=0.02, factor=10.0)
)
ZERO = EventSchedulerSpec(delay=ConstantDelay(0.0))


def _study(engine: str, *, n: int = None, reps: int = None, scheduler=STRAGGLER):
    return run_replications(
        n if n is not None else E21_N,
        "push-pull",
        reps=reps if reps is not None else E21_REPS,
        base_seed=7,
        engine=engine,
        scheduler=scheduler,
    )


def _interleaved_samples(engines) -> list:
    """Whole-study seconds per engine: E21_REPEATS batches, interleaved
    inside every repeat so drift hits both engines alike.  Each repeat
    records the best of two back-to-back runs per engine (the timeit
    convention): a one-off scheduler spike on either side would
    otherwise dominate the worst-paired-ratio gate."""
    samples = [[] for _ in engines]
    for _ in range(E21_REPEATS):
        for i, engine in enumerate(engines):
            best = float("inf")
            for _run in range(2):
                start = time.perf_counter()
                _study(engine)
                best = min(best, time.perf_counter() - start)
            samples[i].append(best)
    return samples


def _rows(summary) -> dict:
    return {k: v for k, v in summary.row().items() if not k.startswith("sim_time")}


def test_e21_event_vector():
    # Warm up imports and allocators on both sides before timing.
    for engine in ("reset", "vector"):
        _study(engine, reps=2)

    # -- correctness first ----------------------------------------------
    # 1. Zero latency: the overlay must not perturb the batch.
    plain = run_replications(E21_N, "push-pull", reps=8, base_seed=7, engine="vector")
    timed = _study("vector", reps=8, scheduler=ZERO)
    assert _rows(plain) == _rows(timed), (
        "the zero-latency clock overlay perturbed the vector engine"
    )
    # 2. The batched clock agrees with the sequential event scheduler.
    seq = _study("reset", n=2048, reps=16)
    vec = _study("vector", n=2048, reps=16)
    assert vec.engine == "vector"
    a, b = seq.metrics["sim_time"], vec.metrics["sim_time"]
    assert abs(a.mean - b.mean) <= 0.15 * max(a.mean, 1.0), (
        f"vector sim_time mean {b.mean:.2f} disagrees with the sequential "
        f"event scheduler's {a.mean:.2f}"
    )

    # -- the gated speedup ----------------------------------------------
    reset_s, vector_s = _interleaved_samples(["reset", "vector"])
    ratios = sorted(r / v for r, v in zip(reset_s, vector_s))
    speedup = ratios[len(ratios) // 2]
    speedup_min = ratios[0]

    # -- the scale leg: complete where the sequential tier cannot -------
    start = time.perf_counter()
    scale = _study("vector", n=E21_SCALE_N, reps=E21_SCALE_REPS)
    scale_s = time.perf_counter() - start
    assert scale.engine == "vector"
    assert scale.success_rate == 1.0
    assert scale.metrics["sim_time"].mean > 0

    table = Table(
        title="E21: batched event tier (median of %d interleaved batches, "
        "n=%d, R=%d)" % (E21_REPEATS, E21_N, E21_REPS),
        columns=["configuration", "study (s)", "per-rep (s)", "speedup"],
        caption="reset = sequential event scheduler per replication; "
        "vector = one BatchClockOverlay folding all R clocks at once.  "
        "Gate: median paired reset/vector ratio >= %.1fx (worst pair "
        "%.2fx).  The scale row is informational: the same straggler "
        "study at n=%d." % (E21_GATE, speedup_min, E21_SCALE_N),
    )
    for name, best, ratio, reps in [
        ("reset engine @ straggler", min(reset_s), None, E21_REPS),
        ("vector engine @ straggler", min(vector_s), speedup, E21_REPS),
        ("vector @ straggler, n=%d" % E21_SCALE_N, scale_s, None, E21_SCALE_REPS),
    ]:
        table.add(
            name,
            f"{best:.3f}",
            f"{best / reps:.4f}",
            "—" if ratio is None else f"{ratio:.2f}x",
        )
    emit(table, "E21_event_vector")
    trajectory_note(
        "E21_event_vector",
        gate=E21_GATE,
        n=E21_N,
        reps=E21_REPS,
        reset_s=round(min(reset_s), 4),
        vector_s=round(min(vector_s), 4),
        speedup_median=round(speedup, 3),
        speedup_min=round(speedup_min, 3),
        scale_n=E21_SCALE_N,
        scale_reps=E21_SCALE_REPS,
        scale_s=round(scale_s, 4),
        scale_sim_time_mean=round(scale.metrics["sim_time"].mean, 3),
    )

    assert speedup >= E21_GATE, (
        f"vector event tier is only {speedup:.2f}x (median paired) faster "
        f"than the sequential reset engine, under the {E21_GATE:.1f}x gate"
    )
