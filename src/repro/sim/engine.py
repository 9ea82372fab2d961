"""The synchronous round engine.

One :class:`Round` = one synchronous round of the random phone call model.
Algorithms build a round by declaring bulk PUSH and PULL operations (numpy
arrays of initiator and target indices), then commit it.  On commit the
engine

* validates the model: each *alive* node initiates at most one contact per
  round (``ModelViolation`` otherwise), dead nodes neither initiate nor
  receive nor respond;
* computes deliveries (which pushes arrived where, which pulls got a
  response) and hands them back to the caller;
* charges :class:`~repro.sim.metrics.Metrics`: pushes and pull *responses*
  are messages with their payload bits; fan-in per node is pushes received
  plus pull requests received.

A :class:`Simulator` may carry a dynamics driver
(:mod:`repro.sim.dynamics`): the timeline advances at round *boundaries*
— events for round ``t`` fire when round ``t-1`` commits (round 0's at
simulator construction) — so liveness is stable for the whole window in
which an algorithm plans and declares round ``t``'s operations.  A node
crashed at round ``t`` therefore neither initiates, responds, nor soaks
up fan-in at any round ``>= t``.  While a loss window is active each bulk
op draws a single vectorised survival mask (lost pushes are charged but
not delivered; lost pull requests reach nobody, so they are charged
neither as fan-in nor as a response).  Without a driver no mask is drawn
and no extra RNG state is consumed: the zero-adversity path is the
unchanged static engine.

Direct addressing is the caller's business: the engine takes explicit
target indices and does not second-guess how the caller learned them.  The
knowledge-tracking needed for the Section 6 lower bound lives separately in
:mod:`repro.core.lower_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

import numpy as np

from repro.sim.metrics import Metrics
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.dynamics import DynamicsDriver
    from repro.sim.schedule import EventScheduler


class ModelViolation(RuntimeError):
    """An operation broke a random-phone-call model rule."""


def _gather(arrays: "List[np.ndarray]", dtype=np.int64) -> np.ndarray:
    """Concatenate per-op arrays (a round with one non-empty op skips the
    copy and hands back that op's own array)."""
    arrays = [a for a in arrays if len(a)]
    if not arrays:
        return np.empty(0, dtype=dtype)
    if len(arrays) == 1:
        return arrays[0].astype(dtype, copy=False)
    return np.concatenate(arrays).astype(dtype, copy=False)


@dataclass
class RoundContacts:
    """A committed round's contacts, gathered once at commit: every push
    op's, then every pull op's, in declaration order.  Dead-source
    contacts were dropped when the op was declared.

    The one-initiation check, the fan-in count and the event tier's
    clock fold and contact trace all read these arrays.
    """

    srcs: np.ndarray
    dsts: np.ndarray
    #: Per contact: reached an alive target (a push delivered, a pull
    #: request received).
    arrived: np.ndarray
    #: The first ``pushes`` contacts are pushes, the rest pulls.
    pushes: int
    #: How many contacts are initiations (a bidirectional call's
    #: response half is not).
    initiations: int


@dataclass
class _PushOp:
    srcs: np.ndarray
    dsts: np.ndarray
    bits_per_msg: "int | np.ndarray"  # scalar, or array parallel to srcs
    arrived: np.ndarray  # bool per push: reached an alive target (fan-in)
    counts_initiation: bool = True


@dataclass
class _PullOp:
    srcs: np.ndarray
    dsts: np.ndarray
    bits_per_response: "int | np.ndarray"  # scalar, or array parallel to srcs
    responds: np.ndarray  # bool per pull: a response was sent (charged)
    arrived: np.ndarray  # bool per pull: request reached an alive target (fan-in)
    counts_initiation: bool = True


def _as_bits(bits, count: int) -> "int | np.ndarray":
    """Normalise a scalar or per-message array of bit sizes.

    Scalars stay scalars (the common case — the commit path multiplies
    instead of materialising and summing an all-equal array); per-message
    arrays are validated against ``count``.
    """
    arr = np.asarray(bits)
    if arr.ndim == 0:
        return int(arr)
    if arr.shape != (count,):
        raise ValueError(f"bits array has shape {arr.shape}, expected ({count},)")
    return arr.astype(np.int64, copy=False)


def _bits_total(bits: "int | np.ndarray", count: int) -> int:
    """Total bits of ``count`` messages (scalar and per-message shapes)."""
    if isinstance(bits, int):
        return bits * count
    return int(bits.sum())


def _as_index_array(indices) -> np.ndarray:
    """Validate an index operand, preserving its dtype.

    The engine is index-dtype-agnostic: integer arrays of any width flow
    through identically (numpy upcasts where they meet).  Non-integer
    input — e.g. a Python list — is converted to int64.
    """
    arr = np.asarray(indices)
    if arr.dtype.kind != "i":
        arr = arr.astype(np.int64)
    return arr


@dataclass
class PushDelivery:
    """Deliveries of one push op: parallel arrays of arrived messages."""

    srcs: np.ndarray
    dsts: np.ndarray


@dataclass
class PullDelivery:
    """Outcome of one pull op: mask (per original pull) of answered pulls."""

    answered: np.ndarray


class Round:
    """Builder for one synchronous round.  Use via ``Simulator.round()``.

    Declared operand arrays are borrowed, not copied, on the all-alive
    fast path: the round keeps references to them until :meth:`commit`
    charges the metrics, so callers must treat arrays they passed to
    :meth:`push`/:meth:`pull` as frozen until the round closes (reuse
    scratch buffers *across* rounds, not within one).
    """

    def __init__(self, sim: "Simulator", label: Optional[str] = None) -> None:
        self._sim = sim
        self.label = label
        self._pushes: List[_PushOp] = []
        self._pulls: List[_PullOp] = []
        #: The round's gathered contacts, set by :meth:`commit`.
        self.contacts: Optional[RoundContacts] = None
        self._committed = False

    # ------------------------------------------------------------------
    # Declaring operations
    # ------------------------------------------------------------------

    def _arrival_mask(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Per-message mask of targets that exist, are alive, and are
        connectable.

        On the static complete-graph path every declared target is a
        valid index and the mask is just the alive table — the untouched
        hot path.  Under a dynamics timeline a caller may address a
        *stale* target (e.g. a follow pointer reconciled to
        ``UNCLUSTERED`` after a mid-run crash); on a restricted topology
        a caller with no alive neighbor declares the ``-1`` sentinel,
        and under ``direct_addressing="topology"`` a learned address
        outside the caller's neighborhood does not connect.  All such
        messages go into the void — charged as sent, delivered nowhere
        (:meth:`repro.sim.network.Network.connection_mask`).
        """
        net = self._sim.net
        # n > 1 keeps the fast path off single-node networks, where the
        # "-1" nobody-to-call sentinel would wrap around to alive[0] and
        # fabricate a delivery; connection_mask handles it correctly.
        if self._sim.dynamics is None and not net.topology_restricted and net.n > 1:
            return net.alive[dsts]
        return net.connection_mask(srcs, dsts)

    def push(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        bits_per_msg,
        *,
        counts_initiation: bool = True,
    ) -> PushDelivery:
        """``srcs[i]`` pushes a ``bits_per_msg``-bit message to ``dsts[i]``.

        ``bits_per_msg`` may be a scalar or an array parallel to ``srcs``
        (messages of different sizes, e.g. ClusterResize responses).
        ``counts_initiation=False`` marks messages that ride a channel the
        source already opened this round (the response half of a
        bidirectional phone call); they are charged as messages but not as
        a second initiation.

        Returns the sub-arrays that are actually *delivered*: pushes by dead
        sources are dropped entirely (a dead node does nothing); pushes to
        dead targets — and pushes lost to an active message-loss window —
        are sent (and charged) but not delivered.

        The round may hold **references** to ``srcs``/``dsts`` (not
        copies) until it commits; callers must not mutate the arrays they
        passed in before the round closes.  The returned delivery arrays
        are always private copies.
        """
        srcs = _as_index_array(srcs)
        dsts = _as_index_array(dsts)
        if srcs.shape != dsts.shape:
            raise ValueError("srcs and dsts must be parallel arrays")
        bits = _as_bits(bits_per_msg, len(srcs))
        alive_src = self._sim.net.alive[srcs]
        if not alive_src.all():
            srcs, dsts = srcs[alive_src], dsts[alive_src]
            if not isinstance(bits, int):
                bits = bits[alive_src]
        delivered = self._arrival_mask(srcs, dsts)
        dyn = self._sim.dynamics
        if dyn is not None:
            keep = dyn.push_survival(len(dsts))
            if keep is not None:
                # Only messages that were actually in transit to a live
                # target count as "lost" (a drop to a dead node is moot).
                dyn.messages_lost += int((delivered & ~keep).sum())
                delivered &= keep
        self._pushes.append(_PushOp(srcs, dsts, bits, delivered, counts_initiation))
        return PushDelivery(srcs[delivered], dsts[delivered])

    def pull(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        bits_per_response,
        responds: Optional[np.ndarray] = None,
        *,
        counts_initiation: bool = True,
    ) -> PullDelivery:
        """``srcs[i]`` pulls from ``dsts[i]``.

        ``bits_per_response`` may be a scalar or an array parallel to
        ``srcs``.  ``responds`` (parallel bool array, default all-True) says
        whether each responder has content this round — the responder's
        answer is address-oblivious, so the caller computes it per
        *responder* and passes the per-pull mask here.  Pulls by dead
        sources are dropped; pulls to dead or non-responding targets get no
        answer (but the request still counts toward the target's fan-in if
        it is alive).  Under an active message-loss window, a request lost
        in transit reaches nobody (no fan-in, no charged response), and a
        sent response lost on the way back is charged but not delivered.

        Note: the returned ``answered`` mask is parallel to the pulls *as
        declared* (a dead-source pull is simply never answered), so callers
        can always zip it with their input arrays — whether or not their
        pre-filtering is up to date with a dynamics timeline's crashes.

        As with :meth:`push`, the round may hold references to the input
        arrays until it commits — do not mutate them before the round
        closes.  The ``answered`` mask is a private array.
        """
        srcs = _as_index_array(srcs)
        dsts = _as_index_array(dsts)
        if srcs.shape != dsts.shape:
            raise ValueError("srcs and dsts must be parallel arrays")
        bits = _as_bits(bits_per_response, len(srcs))
        if responds is None:
            responds = np.ones(len(srcs), dtype=bool)
        responds = np.asarray(responds, dtype=bool)
        if responds.shape != srcs.shape:
            raise ValueError("responds must be parallel to srcs")
        alive_src = self._sim.net.alive[srcs]
        all_sources_alive = bool(alive_src.all())
        if not all_sources_alive:
            declared_count = len(srcs)
            srcs, dsts, responds = srcs[alive_src], dsts[alive_src], responds[alive_src]
            if not isinstance(bits, int):
                bits = bits[alive_src]
        arrived = self._arrival_mask(srcs, dsts)
        dyn = self._sim.dynamics
        masks = dyn.pull_survival(len(dsts)) if dyn is not None else None
        if masks is None:
            sent = responds & arrived
            answered = sent
        else:
            request_arrived, round_trip_ok = masks
            dyn.messages_lost += int((arrived & ~request_arrived).sum())
            arrived &= request_arrived
            sent = responds & arrived  # responses actually transmitted (charged)
            answered = sent & round_trip_ok  # ... and delivered back
            dyn.messages_lost += int((sent & ~answered).sum())
        self._pulls.append(_PullOp(srcs, dsts, bits, sent, arrived, counts_initiation))
        if not all_sources_alive:
            full = np.zeros(declared_count, dtype=bool)
            full[alive_src] = answered
            answered = full
        return PullDelivery(answered)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit(self) -> None:
        """Validate the round and charge metrics.  Called automatically
        when the round is used as a context manager."""
        if self._committed:
            raise RuntimeError("round committed twice")
        self._committed = True
        sim = self._sim
        n = sim.net.n
        ops = self._pushes + self._pulls
        srcs = _gather([op.srcs for op in ops])
        dsts = _gather([op.dsts for op in ops])
        arrived = _gather([op.arrived for op in ops], bool)

        counted = [op.counts_initiation for op in ops]
        initiators = srcs
        if not all(counted):
            initiators = srcs[np.repeat(counted, [len(op.srcs) for op in ops])]
        max_initiations = 0
        if len(initiators):
            init_counts = np.bincount(initiators, minlength=n)
            max_initiations = int(init_counts.max())
            if max_initiations > 1:
                offender = int(np.argmax(init_counts))
                raise ModelViolation(
                    f"node {offender} initiated {max_initiations} contacts in round "
                    f"{sim.metrics.rounds + 1} ({self.label or 'unlabelled'}); "
                    "the model allows one initiation per node per round"
                )

        pushes = push_bits = 0
        for op in self._pushes:
            pushes += len(op.srcs)
            push_bits += _bits_total(op.bits_per_msg, len(op.srcs))
        pull_requests = pull_responses = pull_bits = 0
        for op in self._pulls:
            pull_requests += len(op.srcs)
            answered = int(np.count_nonzero(op.responds))
            pull_responses += answered
            if isinstance(op.bits_per_response, int):
                pull_bits += op.bits_per_response * answered
            else:
                pull_bits += int(op.bits_per_response[op.responds].sum())
        self.contacts = RoundContacts(srcs, dsts, arrived, pushes, len(initiators))

        # Fan-in: pushes received + pull requests received, at alive nodes.
        # Arrival was decided per op at declare time (alive targets, minus
        # any message-loss mask).
        reached = dsts[arrived]
        max_fanin = 0
        if len(reached):
            max_fanin = int(np.bincount(reached, minlength=n).max())

        sim.metrics.record_round(
            pushes=pushes,
            push_bits=push_bits,
            pull_requests=pull_requests,
            pull_responses=pull_responses,
            pull_bits=pull_bits,
            max_fanin=max_fanin,
            max_initiations=max_initiations,
        )
        # The event tier observes the committed batch before the commit
        # hooks fire, so telemetry probes sample a sim_time that already
        # covers this round's contacts.  The round tier has no scheduler:
        # its clock *is* the metrics counter.
        if sim.scheduler is not None:
            sim.scheduler.on_commit(self)
        # Per-task commit hooks fire on the post-round state but before
        # the dynamics timeline advances: a hook observes the world the
        # round actually produced (e.g. a task records its error series),
        # not the world after the next round's crashes.  Observers read
        # that liveness from committed_alive, which outlives the advance.
        if sim.dynamics is not None:
            sim._committed_alive = sim.net.alive.copy()
        for hook in sim.commit_hooks:
            hook(sim)
        # Round boundary: fire the dynamics timeline's events for the next
        # round now, so every computation an algorithm does between this
        # commit and the next one sees a consistent liveness table.
        if sim.dynamics is not None:
            sim.dynamics.begin_round(sim.metrics.rounds)

    def __enter__(self) -> "Round":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()


class Simulator:
    """Ties a :class:`Network`, a :class:`Metrics` and an RNG together.

    Parameters
    ----------
    net:
        The network (holds liveness and uids).
    rng:
        Generator for all of the algorithm's random choices.
    metrics:
        Accounting sink; a fresh one is created when omitted.
    dynamics:
        Optional :class:`~repro.sim.dynamics.DynamicsDriver` — a bound
        adversity timeline.  Round ``t``'s events fire when round ``t-1``
        commits (round 0's immediately, here), and bulk ops consult the
        driver for message-loss masks.  ``None`` (default) keeps the
        engine on the untouched static path.
    scheduler:
        Optional bound :class:`~repro.sim.schedule.EventScheduler`, which
        overlays per-node clocks and delivery times on the same logical
        rounds.  ``None`` (default) is the round tier: simulated time is
        the round counter.
    """

    def __init__(
        self,
        net: Network,
        rng: np.random.Generator,
        metrics: Optional[Metrics] = None,
        dynamics: "Optional[DynamicsDriver]" = None,
        scheduler: "Optional[EventScheduler]" = None,
    ) -> None:
        self.net = net
        self.rng = rng
        self.metrics = metrics if metrics is not None else Metrics(net.n)
        self.dynamics = dynamics
        #: The event-tier scheduler, or ``None`` on the round tier (see
        #: :mod:`repro.sim.schedule`).
        self.scheduler = scheduler
        if scheduler is not None:
            scheduler.attach(self)
        #: Per-task commit hooks: callables invoked with this simulator
        #: after every round's metrics are charged (and before the
        #: dynamics timeline advances).  Empty on the plain broadcast
        #: path — task transports register observers here.
        self.commit_hooks: List = []
        #: Telemetry run handle (:class:`repro.obs.telemetry.RunTelemetry`)
        #: when observability is attached, else ``None``.  Algorithms use
        #: it to register probes and, through :meth:`emit`, to record
        #: coarse events — sampling itself rides the ``commit_hooks``
        #: mechanism, so the commit path is unchanged whether telemetry
        #: is on or off.
        self.telemetry = None
        self._committed_alive: Optional[np.ndarray] = None
        if dynamics is not None:
            dynamics.begin_round(self.metrics.rounds)

    @property
    def committed_alive(self) -> np.ndarray:
        """The liveness table the last committed round ran under.

        A dynamics timeline fires the next round's events as a round
        commits, so once a run ends ``net.alive`` may already hold crashes
        of a round that never ran.  Observers (commit hooks, probes,
        reports and the final telemetry sample) read this table instead;
        algorithms plan on ``net.alive``.  Before the first commit, and
        without a driver (liveness then never moves mid-run), this is
        ``net.alive`` itself: static runs copy nothing.
        """
        if self._committed_alive is None:
            return self.net.alive
        return self._committed_alive

    @property
    def records_events(self) -> bool:
        """True when an attached telemetry run collects events, the only
        case in which :meth:`emit` records anything."""
        return self.telemetry is not None and self.telemetry.collect_events

    def emit(self, kind: str, **data: Any) -> None:
        """Record one coarse algorithm event (``grow.push``, ``done``, ...)
        at the current round as a telemetry ``event`` record.

        A no-op unless :attr:`records_events`.  Callers pass scalar
        payloads, evaluated at the call, so they guard the call with
        ``if sim.records_events:`` and a run that records no events
        builds no payload.
        """
        if self.records_events:
            self.telemetry.event(self.metrics.rounds, kind, data)

    def add_commit_hook(self, hook) -> None:
        """Register a per-round observer ``hook(sim)`` (see
        ``commit_hooks``); hooks run in registration order."""
        self.commit_hooks.append(hook)

    def round(self, label: Optional[str] = None) -> Round:
        """Open a new synchronous round."""
        return Round(self, label)

    # Convenience single-op rounds -------------------------------------

    def push_round(
        self, srcs: np.ndarray, dsts: np.ndarray, bits_per_msg: int, label: str = ""
    ) -> PushDelivery:
        """A round consisting of a single bulk push."""
        with self.round(label) as r:
            out = r.push(srcs, dsts, bits_per_msg)
        return out

    def pull_round(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        bits_per_response: int,
        responds: Optional[np.ndarray] = None,
        label: str = "",
    ) -> PullDelivery:
        """A round consisting of a single bulk pull."""
        with self.round(label) as r:
            out = r.pull(srcs, dsts, bits_per_response, responds)
        return out

    def random_targets(self, srcs: np.ndarray) -> np.ndarray:
        """One uniformly random *other* contact target per source (the
        model's random phone call never dials the caller itself)."""
        srcs = np.asarray(srcs, dtype=np.int64)
        return self.net.random_targets(len(srcs), self.rng, exclude=srcs)

    def idle_round(self, label: str = "idle") -> None:
        """A round in which nobody communicates (still counts)."""
        with self.round(label):
            pass
