"""Task transports: driving an arbitrary task over an algorithm's contacts.

A transport is the bridge between an algorithm's *communication pattern*
and a task's *content semantics* (:mod:`repro.tasks.state`).  Two
patterns cover the registered algorithms:

:func:`run_uniform_task`
    The random phone call pattern of the gossip baselines: every round
    each participating node contacts one uniformly random other node.
    Content-holding nodes push; in ``"push-pull"`` mode the
    empty-handed pull (exactly the PUSH-PULL role split), in ``"pull"``
    mode only they call; mass-exchange tasks (push-sum) have everyone
    push.  It is the one sequential loop of the PUSH, PULL and PUSH-PULL
    broadcasts (:func:`run_uniform_broadcast`) and task transports.

:func:`run_cluster_task`
    The paper's direct-addressing pattern: build the algorithm's cluster
    structure (the caller supplies the construction phases — Cluster1's
    and Cluster2's differ), then

    1. **gather** — followers push their whole content straight to their
       leader (one round: the leader's address is what ``follow`` is);
    2. **mix** — cluster aggregates cross-pollinate: holders (leaders and
       still-unclustered nodes) push to uniform random nodes, follower
       receivers relay to their leader, until every leader's aggregate is
       complete (or a cap);
    3. **scatter** — followers pull the leader's result (one round);
    4. **catch-up** — nodes still incomplete (stragglers, revived nodes,
       crash orphans) pull random nodes for the result.

    With the usual single spanning cluster this aggregates in O(1) rounds
    after construction — the direct-addressing payoff the paper's
    broadcast results rest on, applied to aggregation.

:func:`run_uniform_batch`
    The random phone call pattern on the ``(R, n)`` vector tier: the
    same role split and the same state methods as
    :func:`run_uniform_task` in ``"push-pull"`` mode, over ``R``
    replication rows of one state (:mod:`repro.tasks.state`'s row
    layout) driven by :func:`repro.sim.batch.uniform_rounds`.  It is
    PUSH-PULL's batch runner for every task but broadcast
    (:func:`uniform_batch_runner`).

The sequential transports merge each round's deliveries inside its
``with sim.round(...)`` block, record the task's error after every
committed round into :attr:`repro.sim.metrics.Metrics.error_series` via
an engine commit hook, and stop as soon as the task's completion
predicate holds (the completion oracle is the experiment harness's).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.clustering import Clustering
from repro.core.result import AlgorithmReport, report_from_sim
from repro.sim.batch import BatchLedger, BatchOutcome, check_max_rounds, uniform_rounds
from repro.sim.caps import round_cap
from repro.sim.engine import Simulator
from repro.tasks.state import BroadcastState, TaskState


def _staged_push(sim: Simulator, state: TaskState, round_, srcs, dsts, extract=False):
    """One bulk task push with connection-aware staging.

    The random phone call model is connection-oriented: a caller whose
    target is dead observes the failed connection (the engine never
    delivers it), so mass-moving states (:attr:`TaskState.moves_mass`)
    only stage content over *established* connections — a push-sum node
    dialling a crashed node keeps its mass and retries next round.  The
    same observation covers topology restrictions
    (:mod:`repro.sim.topology`): a ``-1`` nobody-to-call sentinel or an
    unreachable direct address under ``direct_addressing="topology"``
    never establishes, so no mass is staged over it.  In-transit message
    loss (an active loss window) is invisible to the sender: that mass is
    staged and genuinely lost.  Other states stage every caller (their
    delivered senders are a subset).  The attempt is still declared (and
    charged) for every caller, exactly like the broadcast baselines.
    """
    staged = srcs[sim.net.connection_mask(srcs, dsts)] if state.moves_mass else srcs
    stage = state.begin_extract if extract else state.begin_push
    token = stage(staged)
    delivery = round_.push(srcs, dsts, state.payload_bits(srcs))
    state.finish_push(token, delivery.srcs, delivery.dsts)
    return delivery


def _task_observer(sim: Simulator, state: TaskState):
    """Install the per-round error recorder; returns a ``completion()``
    getter for the first round at which the task was done."""
    holder = {"round": None}

    def observe(s: Simulator) -> None:
        s.metrics.record_error(state.error(s.committed_alive))
        if holder["round"] is None and state.done(s.committed_alive):
            holder["round"] = s.metrics.rounds

    sim.add_commit_hook(observe)
    if sim.telemetry is not None:
        sim.telemetry.add_probe(
            "task_error", lambda s: float(state.error(s.committed_alive))
        )
    return lambda: holder["round"]


def _finish_report(
    sim: Simulator,
    state: TaskState,
    completion: Optional[int],
) -> AlgorithmReport:
    alive = sim.committed_alive
    return report_from_sim(
        state.task,
        sim,
        state.completion_mask(),
        completion_round=completion,
        task=state.task,
        task_error=state.error(alive),
        converged=state.done(alive),
        **state.error_breakdown(alive),
        **state.extras(),
    )


def run_uniform_task(
    sim: Simulator,
    state: TaskState,
    *,
    mode: str = "push-pull",
    max_rounds: Optional[int] = None,
    run_to_cap: bool = False,
    name: Optional[str] = None,
) -> Optional[int]:
    """Drive ``state`` over uniform random phone calls; return the first
    round after which every alive node was complete (0 if none was
    needed, ``None`` if never).

    ``mode="push-pull"`` gives empty-handed nodes a pull lane (the
    PUSH-PULL role split); ``mode="push"`` leaves them idle (the PUSH
    pattern) and ``mode="pull"`` the content holders (the PULL pattern).
    Mass-exchange tasks put every node on the push lane in all modes.
    Stops at completion or after ``max_rounds`` (default: the task's
    :meth:`TaskState.cap_schedule`); ``run_to_cap`` runs the whole cap
    (a schedule with no local stopping rule).
    ``name`` (default: the task's) labels the ``<name>.step`` events.
    """
    if mode not in ("push-pull", "push", "pull"):
        raise ValueError(f"mode must be 'push-pull', 'push' or 'pull', got {mode!r}")
    check_max_rounds(max_rounds)
    if max_rounds is None:
        schedule, knobs = state.cap_schedule()
        max_rounds = round_cap(schedule, sim.net.n, sim.net.graph, **knobs)
    name = name or state.task
    nothing = np.empty(0, dtype=np.int64)
    completion = 0 if state.done(sim.net.alive) else None
    step = 0
    while step < max_rounds and (run_to_cap or completion is None):
        step += 1
        alive = sim.net.alive_indices()
        state.sync_liveness(sim.net.alive)
        state.begin_round()
        if state.all_push():
            pushers, pullers = alive, nothing
        else:
            content = state.has_content(alive)
            pushers = nothing if mode == "pull" else alive[content]
            pullers = nothing if mode == "push" else alive[~content]
        with sim.round(name) as r:
            if len(pushers):
                _staged_push(sim, state, r, pushers, sim.random_targets(pushers))
            if len(pullers):
                pdsts = sim.random_targets(pullers)
                answered = r.pull(
                    pullers,
                    pdsts,
                    state.payload_bits(pdsts),
                    state.has_content(pdsts),
                ).answered
                state.deliver_pull(pullers[answered], pdsts[answered])
            state.end_round()
        if completion is None and state.done(sim.net.alive):
            completion = step
        if sim.records_events:
            sim.emit(f"{name}.step", progress=round(state.progress(sim.net.alive), 6))
    return completion


def run_uniform_transport(
    sim: Simulator,
    state: TaskState,
    *,
    mode: str,
    max_rounds: Optional[int] = None,
) -> AlgorithmReport:
    """A task over uniform random calls, stopped at completion: the
    PUSH and PUSH-PULL task transports."""
    _task_observer(sim, state)  # the error series; the loop counts completion
    with sim.metrics.phase(f"task:{state.task}"):
        completion = run_uniform_task(sim, state, mode=mode, max_rounds=max_rounds)
    return _finish_report(sim, state, completion)


def run_uniform_broadcast(
    sim: Simulator, source: int, *, mode: str, max_rounds: Optional[int]
) -> AlgorithmReport:
    """PUSH, PULL or PUSH-PULL broadcast (``mode`` is the algorithm and
    its schedule) to its cap: no local stopping rule, so the loop runs
    to the cap and ``completion_round`` records the spread."""
    if max_rounds is None:
        max_rounds = round_cap(mode, sim.net.n, sim.net.graph)
    state = BroadcastState(sim.net, source)
    if sim.telemetry is not None:
        sim.telemetry.add_probe(
            "informed", lambda s: round(state.progress(s.committed_alive), 6)
        )
    with sim.metrics.phase(mode):
        completion = run_uniform_task(
            sim, state, mode=mode, max_rounds=max_rounds, run_to_cap=True, name=mode
        )
    return report_from_sim(mode, sim, state.informed, completion_round=completion)


def run_cluster_task(
    sim: Simulator,
    state: TaskState,
    build: Callable[[Simulator, Clustering], None],
    *,
    mix_rounds: Optional[int] = None,
    catchup_rounds: Optional[int] = None,
) -> AlgorithmReport:
    """Drive ``state`` over a cluster structure (see module docstring).

    ``build`` constructs the clustering with the owning algorithm's own
    phases and parameters; everything after it is shared: gather → mix →
    scatter → catch-up.
    """
    if mix_rounds is None:
        mix_rounds = round_cap("cluster-task", sim.net.n, sim.net.graph)
    if catchup_rounds is None:
        catchup_rounds = round_cap("cluster-task", sim.net.n, sim.net.graph)
    completion = _task_observer(sim, state)

    cl = Clustering(sim.net)
    if sim.telemetry is not None:
        sim.telemetry.add_probe("clusters", lambda s, cl=cl: float(cl.cluster_count()))
    build(sim, cl)

    # -- gather: followers hand their content straight to their leader.
    # Under a dynamics timeline a second attempt retransmits anything a
    # loss window ate (mass-moving states have nothing left to resend and
    # skip themselves via has_content).
    with sim.metrics.phase("task-gather"):
        for _ in range(2 if sim.dynamics is not None else 1):
            followers = cl.followers()
            state.sync_liveness(sim.net.alive)
            state.begin_round()
            senders = followers[state.has_content(followers)]
            with sim.round("TaskGather") as r:
                _staged_push(
                    sim, state, r, senders, cl.follow[senders], extract=True
                )
                state.end_round()
            if sim.records_events:
                sim.emit("task.gather", senders=len(senders))

    # -- mix: cluster aggregates cross-pollinate until every leader's is
    # complete.  Holders push to uniform targets; follower receivers
    # relay to their leader (two rounds per iteration, the ClusterPUSH
    # shape).
    with sim.metrics.phase("task-mix"):
        for _ in range(mix_rounds):
            lead = cl.leaders()
            holders = np.flatnonzero(cl.leader_mask() | cl.unclustered_mask())
            if len(lead) == 0 or len(holders) <= 1:
                break
            if state.completion_mask()[lead].all():
                break
            state.sync_liveness(sim.net.alive)
            state.begin_round()
            senders = holders[state.has_content(holders)]
            with sim.round("TaskMix:push") as r:
                d = _staged_push(
                    sim, state, r, senders, sim.random_targets(senders)
                )
                state.end_round()

            followers = cl.followers()
            relayers = state.relay_candidates(followers)
            if relayers is None:
                relayers = np.intersect1d(np.unique(d.dsts), followers)
            state.begin_round()
            with sim.round("TaskMix:relay") as r:
                _staged_push(
                    sim, state, r, relayers, cl.follow[relayers], extract=True
                )
                state.end_round()
            if sim.records_events:
                sim.emit("task.mix", holders=len(holders), relayed=len(relayers))

    # -- scatter: followers pull the leader's result (direct addressing
    # again: one round regardless of cluster size).
    with sim.metrics.phase("task-scatter"):
        followers = cl.followers()
        if len(followers):
            state.sync_liveness(sim.net.alive)
            state.begin_round()
            leaders_of = cl.follow[followers]
            with sim.round("TaskScatter") as r:
                answered = r.pull(
                    followers,
                    leaders_of,
                    state.estimate_bits(leaders_of),
                    state.estimate_mask(leaders_of),
                ).answered
                state.adopt(followers[answered], leaders_of[answered])
                state.end_round()

    # -- catch-up: whoever is still incomplete (unclustered stragglers,
    # revived nodes, crash orphans) pulls random nodes for the result.
    with sim.metrics.phase("task-catchup"):
        for _ in range(catchup_rounds):
            alive = sim.net.alive
            if state.done(alive):
                break
            pending = np.flatnonzero(alive & ~state.completion_mask())
            state.sync_liveness(alive)
            state.begin_round()
            dsts = sim.random_targets(pending)
            with sim.round("TaskCatchup") as r:
                answered = r.pull(
                    pending,
                    dsts,
                    state.estimate_bits(dsts),
                    state.estimate_mask(dsts),
                ).answered
                state.adopt(pending[answered], dsts[answered])
                state.end_round()
            if sim.records_events:
                sim.emit("task.catchup", pending=len(pending))

    return _finish_report(sim, state, completion())


def _row_charges(a: int, n: int, bits, mask) -> tuple:
    """Per row of an ``(a * n)`` block: how many of its ``mask``ed
    messages there are (every position when ``None``) and their total
    ``bits`` (one size for all, or one per position)."""
    scalar = np.ndim(bits) == 0
    if mask is None:
        return n, n * bits if scalar else bits.reshape(a, n).sum(axis=1)
    count = np.count_nonzero(mask.reshape(a, n), axis=1)
    if scalar:
        return count, count * bits
    return count, np.where(mask, bits, 0).reshape(a, n).sum(axis=1)


def run_uniform_batch(
    state: TaskState,
    rng: np.random.Generator,
    *,
    max_rounds: Optional[int] = None,
    telemetry=None,
    overlay=None,
) -> BatchOutcome:
    """Drive every row of ``state`` over uniform PUSH-PULL calls, stopped
    per row at completion: the batch tier's task transport.

    Each round (:func:`~repro.sim.batch.uniform_rounds`) every node of
    every running row dials one uniform other node of its row.  Content
    holders push through :meth:`~TaskState.begin_push` /
    :meth:`~TaskState.finish_push` (everyone, under
    :meth:`~TaskState.all_push`), the others pull from their contact
    through :meth:`~TaskState.has_content` /
    :meth:`~TaskState.deliver_pull`, and each row is charged its pushes
    plus its answered pulls at their :meth:`~TaskState.payload_bits` —
    the engine's rule, so a one-row state given the same contacts ends
    exactly as :func:`run_uniform_task` leaves it.  A row freezes (no
    more contacts or charges) once every node in it is complete.
    ``max_rounds`` defaults to the task's :meth:`~TaskState.cap_schedule`.

    ``telemetry`` (a :class:`repro.obs.telemetry.RunTelemetry` handle)
    samples the mean ``task_error`` over the rows and the count of
    ``active_reps``; ``overlay`` (a
    :class:`repro.sim.schedule.BatchClockOverlay`) folds each round into
    the per-row clocks, never drawing from ``rng``.
    """
    n, reps = state.n, state.reps
    if max_rounds is None:
        schedule, knobs = state.cap_schedule()
        max_rounds = round_cap(schedule, n, **knobs)
    everyone = np.ones(reps * n, dtype=bool)
    positions = np.arange(reps * n, dtype=np.int64)

    def exchange(act, flat_t, valid):
        a = len(act)
        if a == reps:
            # Whole-row path: the chunk-local targets are the state's
            # positions, and full-row reads are views.
            nodes, dsts = slice(None), flat_t
        else:
            shift = np.repeat((act - np.arange(a)) * n, n)
            nodes, dsts = positions[: a * n] + shift, flat_t + shift
        state.begin_round()
        payload = state.payload_bits(nodes)
        if state.all_push():
            state.finish_push(state.begin_push(nodes), nodes, dsts)
            msgs, bits = _row_charges(a, n, payload, None)
        else:
            content = state.has_content(nodes)
            local = np.flatnonzero(content)
            pushers = local if a == reps else nodes[local]
            state.finish_push(state.begin_push(pushers), pushers, dsts[local])
            # Block-local reads: a contact stays inside its row.
            answered = ~content & content[flat_t]
            local = np.flatnonzero(answered)
            receivers = local if a == reps else nodes[local]
            state.deliver_pull(receivers, dsts[local])
            msgs, bits = _row_charges(a, n, payload, content)
            responses, response_bits = _row_charges(
                a, n, payload if np.ndim(payload) == 0 else payload[flat_t], answered
            )
            msgs, bits = msgs + responses, bits + response_bits
        state.end_round()
        return msgs, bits

    def columns(ledger: BatchLedger) -> dict:
        return {
            "task_error": float(state.row_errors(everyone).mean()),
            "active_reps": int(np.count_nonzero(ledger.completion < 0)),
        }

    ledger = BatchLedger(n, reps, telemetry=telemetry, overlay=overlay, columns=columns)
    uniform_rounds(
        ledger, rng, max_rounds, exchange, lambda rows: state.row_counts(rows) == n
    )
    return ledger.outcome(
        "push-pull",
        state.row_counts(),
        ledger.completion >= 0,
        task_error=state.row_errors(everyone),
        **state.row_error_breakdown(everyone),
    )


def uniform_batch_runner(state_type: type) -> Callable[..., BatchOutcome]:
    """PUSH-PULL's batch runner for the task whose state is ``state_type``:
    its ``batch`` constructor draws the rows, :func:`run_uniform_batch`
    runs them."""

    def runner(
        n: int,
        reps: int,
        rng: np.random.Generator,
        *,
        message_bits: int = 256,
        source: Optional[int] = 0,
        max_rounds: Optional[int] = None,
        telemetry=None,
        overlay=None,
        **task_kwargs,
    ) -> BatchOutcome:
        state = state_type.batch(
            n, reps, rng, message_bits=message_bits, source=source, **task_kwargs
        )
        return run_uniform_batch(
            state, rng, max_rounds=max_rounds, telemetry=telemetry, overlay=overlay
        )

    return runner
