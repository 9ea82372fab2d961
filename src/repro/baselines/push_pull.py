"""Uniform PUSH-PULL gossip.

Each round every node contacts one uniformly random node: informed nodes
push the rumor, uninformed nodes pull it.  Both tiers run the rule of
:class:`~repro.tasks.state.BroadcastState`: the sequential one through
:func:`repro.tasks.transports.run_uniform_task` in ``"push-pull"`` mode,
the ``(R, n)`` vector one through
:func:`repro.tasks.transports.run_uniform_batch`, which also runs the
vector task runners registered here.  Completes in
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
from repro.sim.batch import BatchLedger, BatchOutcome
from repro.sim.caps import round_cap
from repro.sim.engine import Simulator
from repro.tasks.state import BroadcastState, ExtremeState, KRumorState, PushSumState
from repro.tasks.transports import (
    run_uniform_batch,
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
    """PUSH-PULL broadcast over its full w.h.p. schedule, ``reps``
    replications at once: a :class:`~repro.tasks.state.BroadcastState`
    informed at ``source`` (a uniform node per row when ``None``), run to
    the cap by :func:`~repro.tasks.transports.run_uniform_batch` with the
    engine's accounting — every node initiates each round (informed push,
    uninformed pull), a push is one ``message_bits``-bit message, a pull
    charges one response iff the responder holds the rumor, and every
    contact counts toward its target's fan-in.  On a bound
    :class:`~repro.sim.topology.ContactGraph` (``graph``) an isolated
    node's ``-1`` contact is a charged-but-undelivered push (and an
    unanswered pull), exactly the engine's restricted-topology rule.

    ``telemetry`` (a :class:`repro.obs.telemetry.RunTelemetry` handle)
    samples the chunk's mean informed fraction and cumulative
    messages/bits every ``probe_every`` rounds, plus a forced final
    sample equal to the outcome.  ``overlay`` (a
    :class:`repro.sim.schedule.BatchClockOverlay`) folds each round's
    contacts into the per-rep clocks and adds ``sim_time``; it draws only
    from its own delay streams, so rounds, messages and bits are the
    same with it on or off.
    """
    state = BroadcastState.batch(n, reps, rng, message_bits=message_bits, source=source)
    ledger = BatchLedger(
        n,
        reps,
        telemetry=telemetry,
        overlay=overlay,
        columns=lambda _: {"informed": float(state.informed.mean())},
    )
    if max_rounds is None:
        max_rounds = round_cap("push-pull", n, graph)
    run_uniform_batch(
        state, rng, ledger, max_rounds=max_rounds, graph=graph, run_to_cap=True
    )
    informed = state.row_counts()
    return ledger.outcome("push-pull", informed, informed == n)


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
#: one vector round loop (:func:`repro.tasks.transports.run_uniform_batch`)
#: over each task's state — push-sum mass exchange, k-rumor all-cast,
#: and min/max dissemination.
for _task, _state in (
    ("push-sum", PushSumState),
    ("k-rumor", KRumorState),
    ("min-max", ExtremeState),
):
    register_batch_runner("push-pull", task=_task)(uniform_batch_runner(_state))
