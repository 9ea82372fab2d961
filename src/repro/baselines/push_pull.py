"""Uniform PUSH-PULL gossip.

Each round every node contacts one uniformly random node: informed nodes
push the rumor, uninformed nodes pull it
(:func:`repro.tasks.transports.run_uniform_task` in ``"push-pull"`` mode
over a :class:`~repro.tasks.state.BroadcastState`).  Completes in
``log3 n + O(log log n)`` rounds [10]; message-complexity ``Theta(log n)``
per node because the uninformed keep pulling (mostly unsuccessfully) all
along and the informed keep pushing until the end.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import AlgorithmReport
from repro.registry import (
    register_algorithm,
    register_batch_runner,
    register_task_transport,
)
from repro.sim.batch import BatchLedger, BatchOutcome, resolve_sources, uniform_rounds
from repro.sim.caps import round_cap
from repro.sim.engine import Simulator
from repro.tasks.state import ExtremeState, KRumorState, PushSumState
from repro.tasks.transports import (
    run_uniform_broadcast,
    run_uniform_transport,
    uniform_batch_runner,
)


@register_algorithm(
    "push-pull",
    category="baseline",
    kwargs=("max_rounds",),
    doc="PUSH-PULL gossip [10]: log3 n + O(log log n) rounds.",
)
def uniform_push_pull(
    sim: Simulator, source: int = 0, *, max_rounds: int = None
) -> AlgorithmReport:
    """Run PUSH-PULL gossip over its full w.h.p. schedule.

    No local stopping rule: informed nodes push for the whole
    ``Theta(log n)`` schedule, giving the ``Theta(log n)`` per-node
    message-complexity that [10]'s median-counter rule then cuts to
    ``O(log log n)``.
    """
    return run_uniform_broadcast(sim, source, mode="push-pull", max_rounds=max_rounds)


@register_batch_runner("push-pull")
def batched_push_pull(
    n: int,
    reps: int,
    rng: np.random.Generator,
    *,
    message_bits: int = 256,
    source: "int | None" = 0,
    max_rounds: "int | None" = None,
    graph=None,
    telemetry=None,
    overlay=None,
) -> BatchOutcome:
    """PUSH-PULL over its full w.h.p. schedule, ``reps`` replications at
    once in ``(reps, n)`` arrays (see :mod:`repro.sim.batch`).

    Accounting matches the engine path message for message: every node
    initiates each round (informed push, uninformed pull); a push is one
    ``message_bits``-bit message; a pull charges one response iff the
    responder holds the rumor; every contact counts toward its target's
    fan-in.  All replications run the same fixed schedule, so the batch
    stays rectangular and one set of numpy ops per round advances — and
    accounts — all of them.

    With a bound :class:`~repro.sim.topology.ContactGraph` (``graph``),
    contacts come from :meth:`~repro.sim.topology.ContactGraph.sample_contacts_batch`
    instead of the uniform draw: an isolated node's ``-1`` contact is a
    charged-but-undelivered push (and an unanswered pull), exactly the
    engine's restricted-topology rule.

    ``telemetry`` (a :class:`repro.obs.telemetry.RunTelemetry` handle, or
    ``None``) samples the batch every ``probe_every`` steps: mean
    informed fraction and cumulative messages/bits over all replications
    in the chunk, plus a forced final sample so series totals match the
    outcome exactly.

    ``overlay`` (a :class:`repro.sim.schedule.BatchClockOverlay`, or
    ``None``) is the event tier: every round's contacts — one per node,
    serving both the push and the pull lane — fold into the per-rep
    clock matrix, and the outcome carries per-rep ``sim_time``.  The
    overlay draws only from its own delay streams, so the batch's
    rounds/messages/bits are bit-identical with it on or off.
    """
    cap = max_rounds if max_rounds is not None else round_cap("push-pull", n, graph)
    sources = resolve_sources(source, reps, n, rng)
    informed = np.zeros((reps, n), dtype=bool)
    informed[np.arange(reps), sources] = True
    flat_informed = informed.ravel()  # view — stays in sync with `informed`

    def exchange(act, flat_t, valid):
        # The schedule runs to its cap, so ``act`` is every row, every
        # round.  Synchronous semantics: responders and push senders act
        # on the informed set as of the round's start.
        target_informed = flat_informed[flat_t]
        if valid is not None:
            target_informed &= valid
        pull_hits = ~informed & target_informed.reshape(reps, n)
        # Pushes + answered pulls are the content messages (a void -1
        # push is still charged).
        messages = informed.sum(axis=1) + pull_hits.sum(axis=1)
        # Deliveries.  The round-start informed set is read out into the
        # delivery index array before the scatter below mutates it, so
        # no snapshot copy is needed.
        deliver = flat_informed if valid is None else flat_informed & valid
        flat_informed[flat_t[deliver]] = True
        np.logical_or(informed, pull_hits, out=informed)
        return messages, messages * int(message_bits)

    ledger = BatchLedger(
        n,
        reps,
        telemetry=telemetry,
        overlay=overlay,
        columns=lambda _: {"informed": float(informed.mean())},
    )
    uniform_rounds(
        ledger,
        rng,
        cap,
        exchange,
        lambda act: informed.all(axis=1)[act],
        graph=graph,
        run_to_cap=True,
    )
    informed_counts = informed.sum(axis=1)
    return ledger.outcome("push-pull", informed_counts, informed_counts == n)


@register_task_transport("push-pull")
def push_pull_task_transport(
    sim: Simulator, state, *, max_rounds: int = None
) -> AlgorithmReport:
    """PUSH-PULL's contact pattern generalised to any task: content
    holders push, the empty-handed pull (mass-exchange tasks put
    everyone on the push lane)."""
    return run_uniform_transport(
        sim, state, mode="push-pull", max_rounds=max_rounds
    )


#: ``run_replications(..., task=..., engine="vector")`` entry points: the
#: one batch task transport (:func:`repro.tasks.transports.run_uniform_batch`)
#: over each task's state — push-sum mass exchange, k-rumor all-cast,
#: and min/max dissemination.
for _task, _state in (
    ("push-sum", PushSumState),
    ("k-rumor", KRumorState),
    ("min-max", ExtremeState),
):
    register_batch_runner("push-pull", task=_task)(uniform_batch_runner(_state))
