"""E19 — the event tier: zero-latency parity and straggler-tail dilation.

Two claims pinned here:

1. **Parity** — the event-tier scheduler is a *causal timing overlay*
   on the round engine: at zero latency it must cost nothing.  The
   overlay's ``on_commit`` early-returns before touching any per-message
   state, so running the default workload under
   ``EventSchedulerSpec(delay=ConstantDelay(0.0))`` must stay within
   ``REPRO_E19_GATE`` (default 1.05, i.e. <= 5%) of the plain round
   engine — and produce bit-identical metrics, which this bench asserts
   outright.  Nonzero-delay configurations (the uniform scalar fast
   path at ``constant:1`` and the vectorised general path under the
   straggler model) are reported as informational rows, not gated:
   they buy a simulated clock the round engine does not have.

2. **Dilation** — the clock the overlay buys is *informative*: under
   ``straggler`` (2% of nodes 10x slower) the logical execution is
   bit-identical to the round engine (same rounds, same messages — the
   delay model draws from its own dedicated seed stream), but simulated
   completion time dilates by at least ``REPRO_E19_DILATION`` (default
   2x) over the unit-delay clock.  That gap — identical round count,
   very different completion time — is precisely the tail the
   synchronous abstraction hides and the event tier exists to expose.

Timings interleave the configurations over ``REPRO_E19_REPEATS``
batches of ``REPRO_E19_INNER`` runs and gate the best *paired* on/off
ratio (the E18 methodology: pairing cancels clock-frequency drift, the
minimum estimates the noise floor).  ``REPRO_E19_N`` shrinks the
workload for constrained CI legs; the gate asserts stay as written.
"""

from __future__ import annotations

import os
import time

from bench_common import emit, trajectory_note
from repro.analysis.tables import Table
from repro.core.broadcast import broadcast
from repro.sim.schedule import EventSchedulerSpec
from repro.sim.topology import ConstantDelay, NodeSlowdownDelay

E19_N = int(os.environ.get("REPRO_E19_N", str(2**15)))
E19_REPEATS = int(os.environ.get("REPRO_E19_REPEATS", "8"))
E19_INNER = int(os.environ.get("REPRO_E19_INNER", "10"))
E19_GATE = float(os.environ.get("REPRO_E19_GATE", "1.05"))
E19_DILATION = float(os.environ.get("REPRO_E19_DILATION", "2.0"))
E19_DILATION_SEEDS = int(os.environ.get("REPRO_E19_DILATION_SEEDS", "3"))

#: The gated configuration: the overlay attached but frozen at zero
#: latency — the pure cost of carrying a scheduler on the hot path.
ZERO = EventSchedulerSpec(delay=ConstantDelay(0.0))
#: Informational configurations: the uniform scalar fast path and the
#: vectorised general path.
UNIT = EventSchedulerSpec(delay=ConstantDelay(1.0))
STRAGGLER = EventSchedulerSpec(
    delay=NodeSlowdownDelay(base=1.0, fraction=0.02, factor=10.0)
)


def _run(scheduler):
    return broadcast(
        E19_N,
        algorithm="push-pull",
        seed=7,
        scheduler=scheduler,
    )


def _interleaved_samples(schedulers) -> list:
    """Per-run seconds for each scheduler config: E19_REPEATS batches of
    E19_INNER runs, interleaved inside every repeat so drift hits all
    configurations alike."""
    samples = [[] for _ in schedulers]
    for _ in range(E19_REPEATS):
        for i, scheduler in enumerate(schedulers):
            start = time.perf_counter()
            for _ in range(E19_INNER):
                _run(scheduler)
            samples[i].append((time.perf_counter() - start) / E19_INNER)
    return samples


def _paired_ratio(on_samples, off_samples) -> float:
    """Best paired on/off ratio over repeats (drift-cancelled)."""
    return min(on / off for on, off in zip(on_samples, off_samples))


def _metrics(report) -> tuple:
    return (
        report.rounds,
        report.messages,
        report.bits,
        report.max_fanin,
        int(report.informed.sum()),
    )


def test_e19_event_tier():
    # Warm up imports and allocators on both sides before timing.
    for scheduler in (None, ZERO, UNIT, STRAGGLER):
        _run(scheduler)

    # -- correctness first: zero-latency replay is bit-identical --------
    baseline = _run(None)
    assert _metrics(_run(ZERO)) == _metrics(baseline), (
        "the zero-latency event overlay perturbed engine output"
    )

    # -- parity timing --------------------------------------------------
    off_s, zero_s, unit_s, strag_s = _interleaved_samples(
        [None, ZERO, UNIT, STRAGGLER]
    )
    parity = _paired_ratio(zero_s, off_s)

    # -- dilation: same logical run, stretched clock --------------------
    dilations = []
    for seed in range(E19_DILATION_SEEDS):
        unit = broadcast(E19_N, algorithm="push-pull", seed=seed, scheduler=UNIT)
        slow = broadcast(
            E19_N, algorithm="push-pull", seed=seed, scheduler=STRAGGLER
        )
        assert _metrics(slow) == _metrics(unit), (
            "the straggler delay model perturbed engine output (delay "
            "randomness must come from its own seed stream)"
        )
        dilations.append(slow.extras["sim_time"] / unit.extras["sim_time"])
    dilation = min(dilations)

    table = Table(
        title="E19: event tier (best of %d interleaved batches, n=%d)"
        % (E19_REPEATS, E19_N),
        columns=["configuration", "per-run (s)", "vs round", "sim_time/rounds"],
        caption="round = plain synchronous engine; event@0 = the overlay "
        "frozen at zero latency (the gated parity config: best paired "
        "ratio <= %.2f); event@1 / event@straggler are informational — "
        "they buy a simulated clock.  Dilation: straggler sim_time >= "
        "%.1fx the unit-delay clock on bit-identical logical runs."
        % (E19_GATE, E19_DILATION),
    )
    unit_report = _run(UNIT)
    strag_report = _run(STRAGGLER)
    for name, best, ratio, clock in [
        ("round engine", min(off_s), None, None),
        ("event@constant:0", min(zero_s), parity, 0.0),
        ("event@constant:1", min(unit_s), _paired_ratio(unit_s, off_s),
         unit_report.extras["sim_time"] / unit_report.rounds),
        ("event@straggler", min(strag_s), _paired_ratio(strag_s, off_s),
         strag_report.extras["sim_time"] / strag_report.rounds),
    ]:
        table.add(
            name,
            f"{best:.4f}",
            "—" if ratio is None else f"{ratio:.3f}x",
            "—" if clock is None else f"{clock:.2f}",
        )
    emit(table, "E19_async")
    trajectory_note(
        "E19_async",
        gate=E19_GATE,
        n=E19_N,
        parity_ratio=round(parity, 4),
        off_s=round(min(off_s), 4),
        zero_s=round(min(zero_s), 4),
        unit_s=round(min(unit_s), 4),
        straggler_s=round(min(strag_s), 4),
        dilation_min=round(dilation, 3),
        dilation_gate=E19_DILATION,
    )

    assert parity <= E19_GATE, (
        f"zero-latency event overlay costs {parity:.3f}x vs the round "
        f"engine, exceeding the {E19_GATE:.2f}x gate"
    )
    assert dilation >= E19_DILATION, (
        f"straggler dilation {dilation:.2f}x under the {E19_DILATION:.1f}x "
        "floor — the event clock is not exposing the tail"
    )
