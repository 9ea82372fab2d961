"""Execution schedulers: the round clock, made one tier among several.

The paper counts synchronous rounds; real gossip deployments are
asynchronous — stragglers, skewed WAN latencies and rate-limited links
make "how many rounds" and "how long" different questions.  This module
holds the event tier that separates the two; the round tier needs no
object at all:

* the round tier is a :class:`~repro.sim.engine.Simulator` with
  ``scheduler=None``.  Simulated time *is* the committed round count.
* :class:`EventScheduler` is the event tier.  Each committed round's
  bulk PUSH/PULL contacts become timed events: a contact ``u -> w``
  starts at ``u``'s local clock, completes ``delay(u, w)`` time units
  later, advances ``u``'s clock to the completion time and delivers at
  ``t + delay(edge)`` — the receiver's clock is folded up to the
  delivery time, so causality propagates through the contact pattern.
  ``sim_time`` is the latest completion seen so far: the simulated
  wall-clock the round counter cannot express.

The event tier is a **timing overlay**: algorithms and tasks drive the
same bulk op surface, the logical round structure (and therefore every
random draw, delivery and metric) is untouched, and per-message delay
draws come from the dedicated ``"delay"`` seed stream.  Consequently an
event run reproduces the round engine's results *bit-identically* —
zero-latency or otherwise — while exposing a completion-time axis; the
fingerprint corpus replays through the event tier to pin exactly that.

One clock state serves both execution shapes: :class:`BatchClockOverlay`
holds ``R`` per-node clock rows, folds contacts into them and draws
delays from one :class:`~repro.sim.topology.BatchBoundDelay` oracle.
The vector executors bind it for a chunk of replications; the
sequential :class:`EventScheduler` is a one-row overlay that the engine
calls on every commit.

Delay resolution order: an explicit ``EventSchedulerSpec(delay=...)``
wins, else the topology's ``delay=`` annotation, else unit
:class:`~repro.sim.topology.ConstantDelay` (event time coincides with
the round clock under full participation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, ClassVar, List, Optional, Tuple

import numpy as np

from repro.sim.buffers import BufferPool
from repro.sim.rng import derive_seed, make_rng
from repro.sim.topology import (
    DELAY_MODELS,
    BatchBoundDelay,
    ConstantDelay,
    DelayModel,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import ContactTrace
    from repro.sim.engine import Round, Simulator
    from repro.sim.network import Network

#: Scheduler tiers selectable by name (``run/sweep --scheduler``).
SCHEDULER_NAMES = ("round", "event")


class EventScheduler:
    """The event tier: a causal timing overlay on the round engine.

    Per-node simulated clocks start at 0.  When a round commits, every
    contact ``u -> w`` declared in it starts at ``clock[u]`` (all of a
    node's contacts within one round are concurrent) and completes
    ``delay(u, w)`` later; the initiator's clock advances to the
    completion time and a *delivered* contact folds the receiver's
    clock up to it (``max``), so slow endpoints drag their causal
    descendants.  ``sim_time`` is the latest completion seen so far.

    The clocks, the fold and the delay oracle are those of a one-row
    :class:`BatchClockOverlay`; this adapter reads the contacts that
    ``Round.commit`` gathered once (``Round.contacts``) and picks the
    path that folds them.  Fast paths: a zero-latency delay keeps every
    clock frozen at 0 (the overlay costs nothing — the E19 parity
    gate's configuration); a scalar constant delay with full
    participation and uniform clocks advances one scalar instead of
    ``n`` clocks.  The general path is one lean
    :meth:`BatchClockOverlay.fold` per committed round.

    ``contacts`` (a :class:`~repro.obs.trace.ContactTrace`) switches on
    causal tracing: every declared contact — start, completion, round,
    kind, delivery — is appended in bulk per commit, feeding
    critical-path extraction and dilation attribution.  Tracing stays
    off the hot path entirely when unset.
    """

    def __init__(
        self,
        overlay: "BatchClockOverlay",
        contacts: "Optional[ContactTrace]" = None,
    ) -> None:
        self._overlay = overlay
        self.contacts = contacts

    def attach(self, sim: "Simulator") -> None:
        self._sim = sim

    @property
    def sim_time(self) -> float:
        return float(self._overlay.sim_time[0])

    def describe(self) -> str:
        return self._overlay.describe()

    def clocks(self) -> np.ndarray:
        """The per-node simulated clocks (materialised on demand)."""
        return self._overlay.clocks()[0]

    def on_commit(self, committed: "Round") -> None:
        overlay = self._overlay
        tracing = self.contacts is not None
        if overlay.zero and not tracing:
            return  # clocks frozen at 0: the zero-latency overlay is free
        gathered = committed.contacts
        if not len(gathered.srcs):
            return  # an idle round takes no simulated time on the event tier

        if overlay.uniform and not tracing and self._sim.dynamics is None:
            # Uniform fast path: when every alive node initiates exactly
            # once (the model invariant caps initiations at one), every
            # clock advances by the same constant and stays uniform.
            if gathered.initiations == len(self._sim.net.alive_indices()):
                overlay.advance_uniform(0)
                return

        srcs, dsts, arrived = gathered.srcs, gathered.dsts, gathered.arrived
        starts, complete = overlay.fold(None, srcs, dsts, arrived)
        if tracing:
            push = np.zeros(len(srcs), dtype=bool)
            push[: gathered.pushes] = True
            # The trace keeps its columns past the round, and a one-op
            # round's gather holds the caller's own index arrays.
            self.contacts.record(
                self._sim.metrics.rounds,
                srcs.copy(),
                dsts.copy(),
                starts,
                complete,
                arrived,
                push,
            )


class BatchClockOverlay:
    """The event tier's clock state: ``reps`` per-node clock rows.

    A contact ``u -> w`` in rep ``r`` starts at ``clock[r, u]``,
    completes ``delay(r, u, w)`` later, advances the initiator's clock,
    folds a *delivered* contact into the receiver's clock, and
    ``sim_time[r]`` is the latest completion rep ``r`` has seen.  Each
    bulk fold is a handful of ``np.maximum.at`` calls over all reps at
    once, so the timing overlay runs at scale-tier speed.  The vector
    executors bind one per chunk (:func:`make_batch_overlay`); the
    sequential :class:`EventScheduler` binds one row.

    The overlay draws only from its own delay streams, never from the
    runner's algorithm coins — so a run's rounds/messages/bits are
    bit-identical with the overlay on or off.  A one-row overlay binds
    and jitters from the run's ``"delay"`` stream; a vector chunk binds
    each row's fabric from that rep's ``"delay"`` stream and shares one
    batch stream for per-message jitter, so its ``sim_time`` is
    statistically identical to a sequential run at the same per-rep
    seed (exactly identical for zero latency, where every clock stays 0).

    Fast paths: zero latency is free, and full-participation rounds
    under a scalar constant delay advance one scalar per rep while the
    rows stay uniform.

    Workspace: the overlay owns a :class:`~repro.sim.buffers.BufferPool`
    that lives as long as it does — one chunk on the vector tier.  Each
    :meth:`full_round` takes its int64 targets and its completion matrix
    as exact-size views of that pool's buffers, so a chunk's rounds
    (including the task runners' shrinking row sets) reuse the same
    memory instead of allocating, and freeing back to the OS, two
    ``(A, n)`` arrays per round.
    """

    name = "event"

    def __init__(
        self,
        delay: BatchBoundDelay,
        rng: np.random.Generator,
        reps: int,
        n: int,
        *,
        model: Optional[DelayModel] = None,
    ) -> None:
        self._delay = delay
        self._rng = rng
        self.reps = int(reps)
        self.n = int(n)
        self._model = model
        self._clock: Optional[np.ndarray] = None  # (reps, n), lazily built
        # Per-rep uniform scalar while only constant-delay full rounds
        # have occurred (every clock in row r equals _uniform[r]).
        self._uniform: Optional[np.ndarray] = np.zeros(self.reps, dtype=np.float64)
        self._workspace = BufferPool()

    @property
    def zero(self) -> bool:
        """True when every contact is instantaneous (overlay is free)."""
        return self._delay.zero

    @property
    def uniform(self) -> bool:
        """True while a constant delay has kept every row's clocks equal."""
        return self._uniform is not None and self._delay.constant is not None

    def advance_uniform(self, rows) -> None:
        """One full-participation round for the uniform ``rows``.

        Every node initiates, so under a constant delay every clock in
        the row advances by the same amount whether or not its contact
        delivered — the rows stay uniform.  Only valid while
        :attr:`uniform` holds.
        """
        self._uniform[rows] += self._delay.constant

    def clocks(self) -> np.ndarray:
        """The ``(reps, n)`` per-node clocks (uniform rows materialised
        on demand, as a copy)."""
        if self._uniform is not None:
            return np.repeat(self._uniform[:, None], self.n, axis=1)
        return self._clock

    @property
    def sim_time(self) -> np.ndarray:
        """Per-rep simulated wall-clock, ``(reps,)`` float64.

        Computed on read: every completion folds into its initiator's
        clock and clocks only ever grow, so the latest completion a rep
        has seen is exactly the row maximum of its clock — no per-round
        tracking needed on the hot path.
        """
        if self._uniform is not None:
            return self._uniform.copy()
        return self._clock.max(axis=1)

    def describe(self) -> str:
        if self._model is not None:
            return f"event({self._model.describe()})"
        return "event"

    def _materialise(self) -> None:
        if self._clock is None:
            self._clock = np.zeros((self.reps, self.n), dtype=np.float64)
        if self._uniform is not None:
            lifted = self._uniform != 0.0
            if lifted.any():
                self._clock[lifted] = self._uniform[lifted, None]
            self._uniform = None

    def full_round(
        self,
        act: np.ndarray,
        targets: np.ndarray,
        arrived: Optional[np.ndarray] = None,
    ) -> None:
        """Fold one full-participation round for the rep rows ``act``.

        Every node of every active row initiates exactly one contact:
        node ``j`` of row ``act[i]`` dials ``targets[i, j]`` (``-1`` =
        nobody to call).  ``arrived`` optionally masks deliveries (same
        shape as ``targets`` or raveled); undelivered contacts still
        occupy the initiator and count toward ``sim_time``, exactly as
        on the sequential tier.  Rows stay mutually uniform under a
        constant delay, so this path advances one scalar per row.

        The general path's int64 targets (when the caller's are
        narrower) and its completion matrix are exact-size views of the
        overlay's workspace, valid until the next call; the completion
        buffer is never the clock matrix.
        """
        if self._delay.zero:
            return
        act = np.asarray(act, dtype=np.int64)
        if len(act) == 0:
            return
        if self.uniform:
            self.advance_uniform(act)
            return
        # General path, kept two-dimensional: every (row, node) initiates
        # exactly once, so the initiator fold is an elementwise row
        # maximum and only the receiver fold needs a scatter-max — run
        # per row so the scatter stays cache-resident and never builds
        # (A*n,) key arrays (the sparse :meth:`fold` is for the cluster
        # tier's irregular contact sets, not this hot path).
        self._materialise()
        shape = (len(act), self.n)
        targets = np.asarray(targets).reshape(shape)
        if targets.dtype != np.int64:
            # One up-front intp conversion: every scatter/take below
            # would otherwise cast a lean executor index dtype per use.
            wide = self._workspace.take("targets", targets.size).reshape(shape)
            np.copyto(wide, targets)
            targets = wide
        # ``act`` comes sorted and unique (flatnonzero order), so a full
        # count means it IS arange(reps) and the clock rows can be used
        # as views — no gather/scatter copies on the hot path.
        whole = len(act) == self.reps and (
            self.reps == 0 or (act[0] == 0 and act[-1] == self.reps - 1)
        )
        clock_rows = self._clock if whole else self._clock[act]
        complete = self._workspace.take(
            "complete", targets.size, np.float64
        ).reshape(shape)
        self._delay.complete_full(clock_rows, act, targets, self._rng, complete)
        # Initiator fold first: completions never precede their own
        # starts, so it is a plain row assignment — then the receiver
        # scatter-max folds deliveries on top (``complete`` is its own
        # buffer, so the scatter never corrupts its source values).
        if whole:
            self._clock[...] = complete
        else:
            self._clock[act] = complete
        deliver = None
        if arrived is not None:
            deliver = (targets >= 0) & np.asarray(arrived, dtype=bool).reshape(
                targets.shape
            )
        elif not self._delay.no_void and targets.min() < 0:
            deliver = targets >= 0
        for i in range(len(act)):
            row = self._clock[act[i]]
            if deliver is None:
                np.maximum.at(row, targets[i], complete[i])
            else:
                d = deliver[i]
                np.maximum.at(row, targets[i][d], complete[i][d])

    def fold(
        self,
        rows: Optional[np.ndarray],
        srcs: np.ndarray,
        dsts: np.ndarray,
        arrived: Optional[np.ndarray] = None,
    ) -> "Optional[Tuple[np.ndarray, np.ndarray]]":
        """Fold one committed round's contacts into the clock matrix.

        ``rows[i]`` is the rep row of contact ``i``; all contacts of one
        call share the pre-round clock snapshot (a node's contacts
        within a round are concurrent), so callers must issue exactly
        one ``fold`` per logical round per contact group.  ``arrived``
        masks deliveries; ``-1``/out-of-range destinations never fold
        the receiver but still advance the initiator and ``sim_time``.

        ``rows=None`` is the lean one-row path the sequential tier
        takes: node ids are the clock keys, and ``arrived`` is required
        and already false for ``-1``, out-of-range and dead
        destinations (the engine's arrival mask guarantees it).  It
        folds zero-latency contacts too, which a contact trace records.

        Returns the contacts' ``(starts, completions)``, or ``None``
        when a zero-latency or empty row fold was skipped.
        """
        if rows is None:
            src_keys, deliver = srcs, arrived
        else:
            if self._delay.zero or len(rows) == 0:
                return None
            rows = np.asarray(rows, dtype=np.int64)
            srcs = np.asarray(srcs, dtype=np.int64)
            dsts = np.asarray(dsts, dtype=np.int64)
            src_keys = rows * self.n + srcs
            deliver = (dsts >= 0) & (dsts < self.n)
            if arrived is not None:
                deliver &= np.asarray(arrived, dtype=bool)
        self._materialise()
        flat = self._clock.ravel()
        starts = flat[src_keys]
        complete = starts + self._delay.delays(rows, srcs, dsts, self._rng)
        np.maximum.at(flat, src_keys, complete)
        if deliver.any():
            dst_keys = dsts[deliver]
            if rows is not None:
                dst_keys += rows[deliver] * self.n
            np.maximum.at(flat, dst_keys, complete[deliver])
        return starts, complete


def make_batch_overlay(
    spec: "EventSchedulerSpec",
    topology,
    n: int,
    reps: int,
    graph,
    *,
    base_seed: int,
    first_rep: int,
) -> BatchClockOverlay:
    """Bind the batched clock overlay for one vector chunk.

    Rep row ``i`` of the chunk is global replication ``first_rep + i``;
    its bind-time delay fabric is drawn from
    ``derive_seed(base_seed + first_rep + i, "delay")`` — the same
    stream the sequential tier binds from at that rep's seed, so each
    row's straggler set / edge weights are bit-identical to the
    sequential run.  Per-message jitter shares one batch stream
    (statistically equivalent, like the vector executors' shared
    algorithm coins).
    """
    model = spec.resolve_delay(topology)
    rep_rngs = [
        make_rng(derive_seed(base_seed + first_rep + i, "delay"))
        for i in range(reps)
    ]
    shared = make_rng(derive_seed(base_seed, "vector-delay", str(first_rep)))
    bound = model.bind_batch(n, reps, graph, rep_rngs, shared)
    # Neither the complete graph (graph is None) nor a graph without an
    # isolated node draws a -1 "nobody to call" sentinel (the vector
    # tier runs no crashes), so the overlay and samplers can skip
    # validity scans on the hot path.
    bound.no_void = graph is None or graph.no_void
    return BatchClockOverlay(bound, shared, reps, n, model=model)


@dataclass(frozen=True)
class EventSchedulerSpec:
    """Frozen, picklable configuration of the event tier.

    ``delay=None`` defers to the topology's ``delay=`` annotation, then
    to unit :class:`~repro.sim.topology.ConstantDelay`.  Safe inside a
    :class:`~repro.analysis.runner.RunSpec` and across process pools.

    ``trace=True`` attaches a fresh, uncapped
    :class:`~repro.obs.trace.ContactTrace` at bind — the scheduler logs
    every contact for critical-path extraction.
    """

    name: ClassVar[str] = "event"
    delay: Optional[DelayModel] = None
    trace: bool = False

    def resolve_delay(self, topology=None) -> DelayModel:
        """The delay model this spec runs: explicit > topology > unit."""
        if self.delay is not None:
            return self.delay
        if topology is not None and topology.delay is not None:
            return topology.delay
        return ConstantDelay(1.0)

    def bind(self, net: "Network", rng: np.random.Generator) -> EventScheduler:
        """Materialise the scheduler for one bound network.

        ``rng`` is the run's dedicated ``"delay"`` stream: the straggler
        set / per-edge weights are drawn from it here, and the one-row
        overlay keeps it for per-message jitter — algorithm coins are
        never touched, which is what keeps event runs bit-identical to
        the round engine.
        """
        model = self.resolve_delay(net.topology)
        bound = model.bind(net.n, net.graph, rng)
        # As in make_batch_overlay, but only the complete graph: crashes
        # can isolate a node of a bound graph here.
        bound.no_void = net.graph is None
        overlay = BatchClockOverlay(bound, rng, 1, net.n, model=model)
        contacts = None
        if self.trace:
            from repro.obs.trace import ContactTrace

            contacts = ContactTrace(net.n)
        return EventScheduler(overlay, contacts)

    def describe(self) -> str:
        inner = self.delay.describe() if self.delay is not None else "topology"
        return f"event({inner})"


def resolve_scheduler(
    spec: "EventSchedulerSpec | str | None", *, trace: bool = False
) -> Optional[EventSchedulerSpec]:
    """Normalise a scheduler argument.

    Returns ``None`` for the round tier (the default — no overlay is
    attached and the engine path is untouched) or an
    :class:`EventSchedulerSpec` for the event tier.  ``trace=True``
    (contact tracing) implies the event tier: the resolved spec, or a
    default one when none was requested, comes back with ``trace=True``.
    """
    if trace:
        return replace(resolve_scheduler(spec) or EventSchedulerSpec(), trace=True)
    if spec is None:
        return None
    if isinstance(spec, EventSchedulerSpec):
        return spec
    if isinstance(spec, str):
        if spec == "round":
            return None
        if spec == "event":
            return EventSchedulerSpec()
        raise ValueError(
            f"unknown scheduler '{spec}'; expected one of {SCHEDULER_NAMES}"
        )
    raise TypeError(
        f"scheduler must be an EventSchedulerSpec, 'round', 'event' or "
        f"None; got {type(spec).__name__}"
    )


def parse_delay(text: str) -> DelayModel:
    """Build a delay model from a CLI spec string.

    Formats: ``NAME`` or ``NAME:ARGS`` where ``ARGS`` is a
    comma-separated mix of positional numbers and ``key=value`` pairs —
    ``constant:0.5``, ``jitter:0.5,1.5``,
    ``straggler:fraction=0.02,factor=10``, ``wan:sigma=1.25``,
    ``rate-limited:fraction=0.1,factor=20``.
    """
    name, _, argstr = text.partition(":")
    name = name.strip()
    cls = DELAY_MODELS.lookup(name)
    args: List[float] = []
    kwargs = {}
    for part in argstr.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            key, _, value = part.partition("=")
            try:
                kwargs[key.strip()] = float(value)
            except ValueError:
                raise ValueError(
                    f"delay model '{name}': argument '{key.strip()}' needs "
                    f"a number, got '{value.strip()}'"
                ) from None
        else:
            try:
                args.append(float(part))
            except ValueError:
                raise ValueError(
                    f"delay model '{name}': positional argument must be a "
                    f"number, got '{part}'"
                ) from None
    try:
        return cls(*args, **kwargs)
    except TypeError as exc:
        raise ValueError(f"bad arguments for delay model '{name}': {exc}") from None
