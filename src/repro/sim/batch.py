"""Batched replication substrate: R replications in ``(R, n)`` arrays.

The round engine in :mod:`repro.sim.engine` simulates one execution at a
time; its per-round cost is a fixed amount of Python dispatch plus numpy
work proportional to ``n``.  For replication suites — hundreds of seeds
of the *same* configuration — that Python dispatch dominates at small and
medium ``n``, so this module provides the other execution shape: a
**vectorised replication executor** that advances ``R`` independent
replications simultaneously over ``(R, n)``-shaped state, paying the
Python dispatch once per round for the whole batch.

An algorithm opts in by registering a *batch runner* (see
:func:`repro.registry.register_batch_runner`) that returns a
:class:`BatchOutcome` of per-rep scalars.  Every runner keeps its
accounting in one :class:`BatchLedger`: the per-rep rounds, messages,
bits, fan-in and completion, charged with the engine's conventions
(:mod:`repro.sim.metrics`), a telemetry sample every ``probe_every``-th
committed round (idle rounds included), the forced final sample, and
the outcome itself.  The uniform random-phone-call runners — PUSH-PULL
and the push-sum, k-rumor and min-max tasks — also share one round
loop, :func:`uniform_rounds`: it draws one contact per node, hands the
round to the runner's exchange step, folds it into the clock overlay
and charges it, so a runner supplies only that step, a done test, its
telemetry columns and its outcome extras.  The phase-structured cluster
pipeline (Cluster1/Cluster2, :mod:`repro.sim.batch_cluster`) charges
the same ledger from its own primitives.

Determinism: a batch is a deterministic function of its generator and
shape.  The draws are made at the canonical lean index dtype (int32 for
every ``n < 2**31``), in rep-major ``(R, n)`` blocks — a *different* (but
identically distributed) stream than R sequential runs, so the vector
engine is checked against the sequential one statistically
(``tests/test_whp_bounds.py``, ``tests/test_batch_cluster.py``), and
``tests/test_batch_cluster_pin.py`` pins every vector runner's outputs
and telemetry series bit for bit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.sim.buffers import BufferPool
from repro.sim.caps import round_cap

#: Soft cap on elements per ``(R, n)`` work array; chunking in
#: :func:`repro.core.broadcast.run_replications` sizes batches so that
#: ``R * n`` stays under it.  Sized for cache residency, not memory: a
#: chunk touches a dozen-odd ``(R, n)`` intermediates (~0.5 MiB each at
#: int64 under this cap), and keeping that working set near the last-
#: level cache beats wider batches whose gathers and scatters fall out
#: to DRAM — measured ~2x on the event-tier hot path at ``n = 2**14``
#: versus the old ``2**22`` cap.  Most are allocated fresh each round;
#: the clock overlay's int64 targets and completion matrix live in a
#: workspace held for the whole chunk
#: (:class:`~repro.sim.schedule.BatchClockOverlay`).  Python dispatch
#: per round is tens of microseconds, so even a few-rep chunk amortises
#: it.
DEFAULT_BATCH_ELEMS = 2**16


def batch_size(
    n: int,
    reps: int,
    max_elems: int = DEFAULT_BATCH_ELEMS,
    elements_per_node: int = 1,
) -> int:
    """Replications per batch for networks of size ``n`` (at least 1).

    ``elements_per_node`` is the width of the runner's per-node state
    (k-rumor's ``(R, n, k)`` arrays pass ``k``): it divides the element
    budget alongside ``n`` so the chunking stays honest whether the
    caller takes the default budget or passes ``max_elems`` explicitly.
    """
    per_rep = max(1, int(n) * int(elements_per_node))
    return max(1, min(int(reps), int(max_elems) // per_rep))


@dataclass
class BatchOutcome:
    """Per-replication headline figures of one executed batch.

    Arrays are parallel, length R.  ``completion_round`` is -1 when a
    replication never informed everyone inside its schedule.
    """

    algorithm: str
    n: int
    rounds: np.ndarray
    completion_round: np.ndarray
    messages: np.ndarray
    bits: np.ndarray
    max_fanin: np.ndarray
    informed_counts: np.ndarray
    success: np.ndarray
    #: Per-rep final task error (aggregation tasks only; None for the
    #: broadcast-shaped outcomes).
    task_error: Optional[np.ndarray] = None
    #: Per-rep repaired task error (push-sum: error against the
    #: surviving-mass target).  On the zero-adversity batch path no mass
    #: is ever lost, so it equals ``task_error`` — carried anyway so
    #: vector- and reset-engine summaries stream the same metrics.
    task_error_repaired: Optional[np.ndarray] = None
    #: Per-rep simulated wall-clock from the event tier's batched clock
    #: overlay (:class:`repro.sim.schedule.BatchClockOverlay`); ``None``
    #: for round-tier batches, so round-only summaries are unchanged.
    sim_time: Optional[np.ndarray] = None

    @property
    def reps(self) -> int:
        return len(self.rounds)

    def spread_rounds(self, rep: int) -> int:
        """Rounds until full coverage (schedule length if never covered)."""
        c = int(self.completion_round[rep])
        return c if c >= 0 else int(self.rounds[rep])

    def rep_scalars(self, rep: int) -> dict:
        """One replication's figures in :meth:`ReplicationSummary.observe`
        keyword shape."""
        scalars = {
            "rounds": int(self.rounds[rep]),
            "spread_rounds": self.spread_rounds(rep),
            "messages_per_node": float(self.messages[rep]) / self.n,
            "bits_per_node": float(self.bits[rep]) / self.n,
            "max_fanin": int(self.max_fanin[rep]),
            "success": bool(self.success[rep]),
        }
        if self.task_error is not None:
            scalars["task_error"] = float(self.task_error[rep])
        if self.task_error_repaired is not None:
            scalars["task_error_repaired"] = float(self.task_error_repaired[rep])
        if self.sim_time is not None:
            scalars["sim_time"] = float(self.sim_time[rep])
        return scalars


#: Signature of a registered batch runner.
BatchRunner = Callable[..., BatchOutcome]


class BatchLedger:
    """Per-replication accounting of one ``(R, n)`` chunk.

    ``rounds``, ``messages``, ``bits`` and ``max_fanin`` are the per-rep
    totals, ``completion`` the round each replication finished in (-1
    until it does).  With a ``telemetry`` chunk handle
    (:class:`repro.obs.telemetry.RunTelemetry`), every
    ``probe_every``-th committed round, charged or idle, is sampled as
    one series row: the slowest replication's round, the runner's
    ``columns(ledger)``, the chunk's cumulative messages and bits, and
    the ``overlay``'s latest ``sim_time`` on the event tier
    (:class:`repro.sim.schedule.BatchClockOverlay`, which never draws
    from the runner's generator).  :meth:`outcome` forces a final
    sample, so a series' last counters equal the outcome exactly.
    """

    def __init__(
        self,
        n: int,
        reps: int,
        *,
        columns: "Callable[[BatchLedger], dict]",
        telemetry=None,
        overlay=None,
    ) -> None:
        self.n = int(n)
        self.reps = int(reps)
        self.telemetry = telemetry
        self.overlay = overlay
        self.columns = columns
        self.rounds = np.zeros(reps, dtype=np.int64)
        self.messages = np.zeros(reps, dtype=np.int64)
        self.bits = np.zeros(reps, dtype=np.int64)
        self.max_fanin = np.zeros(reps, dtype=np.int64)
        self.completion = np.full(reps, -1, dtype=np.int64)
        self._committed = 0

    def charge(self, act, msgs, bits, fan=None) -> None:
        """Commit one round at replication rows ``act``: ``msgs`` and
        ``bits`` are per-row arrays (or scalars) of charged messages,
        ``fan`` the per-row fan-in of the contacts that arrived (``None``
        when none did)."""
        self.rounds[act] += 1
        self.messages[act] += msgs
        self.bits[act] += bits
        if fan is not None:
            self.max_fanin[act] = np.maximum(self.max_fanin[act], fan)
        self._probe()

    def idle_round(self, act) -> None:
        """A round in which the replications ``act`` do nothing (counted
        and sampled).  No clock fold: an idle round takes no simulated
        time on the event tier (the sequential scheduler's empty-ops
        rule)."""
        self.rounds[act] += 1
        self._probe()

    def _probe(self) -> None:
        if self.telemetry is None:
            return
        self._committed += 1
        if self._committed % self.telemetry.probe_every == 0:
            self._sample(self.telemetry.series.append)

    def _sample(self, write, **final) -> None:
        row = {"round": int(self.rounds.max()), **self.columns(self), **final}
        row["messages"] = int(self.messages.sum())
        row["bits"] = int(self.bits.sum())
        if self.overlay is not None:
            row["sim_time"] = float(self.overlay.sim_time.max())
        write(**row)

    def outcome(
        self, algorithm: str, informed_counts, success, *, final=None, **task_errors
    ) -> BatchOutcome:
        """The chunk's :class:`BatchOutcome` (``task_errors`` fills its
        ``task_error`` fields), after the forced final sample (``final``
        adds the columns known only at the end)."""
        if self.telemetry is not None:
            self._sample(self.telemetry.series.force, **(final or {}))
        return BatchOutcome(
            algorithm=algorithm,
            n=self.n,
            rounds=self.rounds,
            completion_round=self.completion,
            messages=self.messages,
            bits=self.bits,
            max_fanin=self.max_fanin,
            informed_counts=informed_counts,
            success=success,
            sim_time=None if self.overlay is None else self.overlay.sim_time.copy(),
            **task_errors,
        )


def lean_index_dtype(n: int) -> np.dtype:
    """The narrowest signed dtype that indexes ``n`` nodes: ``int32``
    whenever ``n < 2**31``, which halves every ``(R, n)`` target block."""
    return np.dtype(np.int32 if n < 2**31 else np.int64)


def random_targets_batch(
    rng: np.random.Generator, reps: int, n: int, dtype=None
) -> np.ndarray:
    """``(reps, n)`` uniformly random *other*-node targets.

    The same pick-from-``n - 1``-and-shift trick as
    :meth:`repro.sim.network.Network.random_targets`, vectorised across
    replications; node ``i`` of every replication never dials itself.
    Drawn directly at the lean index dtype.
    """
    if dtype is None:
        dtype = lean_index_dtype(n)
    targets = rng.integers(0, n - 1, size=(reps, n), dtype=dtype)
    targets += targets >= np.arange(n, dtype=dtype)[None, :]
    return targets


def per_rep_max_fanin(flat_targets: np.ndarray, reps: int, n: int) -> np.ndarray:
    """Max per-node fan-in of each replication for one round's contacts.

    ``flat_targets`` holds rep-offset flat indices (``rep * n + target``)
    of every contact that *arrived*; one bincount covers all reps.
    """
    counts = np.bincount(flat_targets, minlength=reps * n)
    return counts.reshape(reps, n).max(axis=1)


def resolve_sources(
    source: Optional[int], reps: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-replication source indices: a fixed node, or (``source=None``,
    Theorem 19's setting) a uniformly random node per replication."""
    if source is None:
        return rng.integers(0, n, size=reps, dtype=np.int64)
    return np.full(reps, int(source), dtype=np.int64)


def uniform_rounds(
    ledger: BatchLedger,
    rng: np.random.Generator,
    cap: int,
    exchange: Callable,
    done: Callable,
    *,
    graph=None,
    run_to_cap: bool = False,
) -> None:
    """Up to ``cap`` random-phone-call rounds over ``ledger``'s chunk.

    Each round every node of every running replication dials one
    contact: a uniform other node, or on a bound ``graph`` a random
    neighbour (``-1`` when it has none).  ``exchange(act, flat_t,
    valid)`` applies the round to rows ``act`` and returns their
    ``(messages, bits)`` charges; ``flat_t`` is each caller's rep-offset
    flat target (``i * n + target`` for ``act[i]``) and ``valid`` masks
    the contacts that exist (``None`` when all do).  The one contact
    serves both the push and the pull lane: the round folds into the
    clock overlay as one full round, and each arrived contact counts
    toward its target's fan-in.  ``done(rows)`` tells which rows have
    finished; the ledger records the first round it holds (0 before any
    round), and finished rows freeze — no more contacts or charges —
    unless ``run_to_cap`` (PUSH-PULL's fixed w.h.p. schedule).
    """
    n = ledger.n
    rows = np.arange(ledger.reps, dtype=np.int64)
    nodes = np.arange(n, dtype=np.int64)
    # intp offsets: bincount and fancy indexing cast narrower index
    # arrays per use, so lean dtypes lose here.
    offsets = rows[:, None] * n
    finished = done(rows)
    ledger.completion[finished] = 0
    act = rows if run_to_cap else rows[~finished]
    for step in range(cap):
        a = len(act)
        if a == 0:
            break
        if graph is None:
            targets = random_targets_batch(rng, a, n)
            valid = None
            flat_t = (targets + offsets[:a]).ravel()
            arrived = flat_t
        else:
            targets = graph.sample_contacts_batch(a, nodes, rng)
            valid = (targets >= 0).ravel()
            flat_t = (np.where(targets >= 0, targets, 0) + offsets[:a]).ravel()
            arrived = flat_t[valid]
        # Fan-in first: its bincount is freed before the exchange step
        # allocates, which measured fewer page faults per round.
        fan = per_rep_max_fanin(arrived, a, n)
        msgs, bits = exchange(act, flat_t, valid)
        if ledger.overlay is not None:
            # A void -1 target occupies its caller without delivering.
            ledger.overlay.full_round(act, targets, valid)
        finished = done(act)
        ledger.completion[act[finished & (ledger.completion[act] < 0)]] = step + 1
        ledger.charge(act, msgs, bits, fan)
        if not run_to_cap:
            act = act[~finished]


def _take_rows(pool: BufferPool, name: str, arr: np.ndarray, act) -> np.ndarray:
    """``arr[act]`` for an ``(R, n)`` array, gathered into ``pool``'s
    buffer ``name`` (valid until that buffer is taken again).

    Fresh ``(a, n)`` temporaries would all be freed when a round's
    closure returns; under glibc's default trim threshold that returns a
    few MiB to the OS every round, to be faulted in again the next.
    """
    out = pool.take(name, len(act) * arr.shape[1], arr.dtype)
    return np.take(arr, act, axis=0, out=out.reshape(len(act), arr.shape[1]))


def _task_columns(error: Callable[[], np.ndarray]) -> Callable:
    """The task runners' telemetry columns: the chunk's mean task error
    (``error()`` is per rep) and how many replications still run."""
    return lambda ledger: {
        "task_error": float(error().mean()),
        "active_reps": int(np.count_nonzero(ledger.completion < 0)),
    }


# ----------------------------------------------------------------------
# Task schedules shared with the sequential task layer
# ----------------------------------------------------------------------


def is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer (never a ``bool``)."""
    return isinstance(value, (int, np.integer)) and not isinstance(
        value, (bool, np.bool_)
    )


def check_positive_int(name: str, value) -> None:
    """Require a positive integer (numpy integers accepted, ``bool``
    refused), or raise a one-line ``ValueError`` naming ``name``."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


def check_max_rounds(max_rounds: "int | None") -> None:
    """Check the round-cap override the same way on every engine.

    ``None`` (run the default schedule) passes; anything else must be a
    non-negative integer (numpy integers included), or a one-line
    ``ValueError`` is raised.  The run-config check
    (:func:`repro.core.broadcast.check_config`), the sequential round
    loop that plugin algorithms call directly
    (:func:`~repro.tasks.transports.run_uniform_task`) and the
    median-counter loop call this, so a bad cap is one config error
    everywhere rather than a negative round count, a silently rounded-up
    float or a traceback from ``range()``.
    """
    if max_rounds is not None and (not is_integer(max_rounds) or max_rounds < 0):
        raise ValueError(
            f"max_rounds must be a non-negative integer, got {max_rounds}"
        )


# Task knobs: one check each, called by both the sequential task states
# (:mod:`repro.tasks.state`) and the batch runners below, so a bad knob
# is the same one-line error on every engine.


def check_k(k, nodes: int) -> None:
    """k-rumor's source count: a positive integer no larger than the
    ``nodes`` that can start a rumor (the alive ones)."""
    check_positive_int("k", k)
    if k > nodes:
        raise ValueError(f"k={k} sources exceed {nodes} alive nodes")


def check_tol(tol) -> None:
    """Push-sum's relative tolerance: a real number in (0, 1)."""
    if not isinstance(tol, numbers.Real) or not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")


def check_mode(mode) -> None:
    """Min/max dissemination's aggregate: ``"min"`` or ``"max"``."""
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")


# ----------------------------------------------------------------------
# Push-sum averaging (task "push-sum"), batched
# ----------------------------------------------------------------------

#: Bits per scalar in a push-sum payload; one message carries the
#: ``(value, weight)`` pair, i.e. ``2 * PUSH_SUM_VALUE_BITS`` bits.
PUSH_SUM_VALUE_BITS = 64


def batched_push_sum(
    n: int,
    reps: int,
    rng: np.random.Generator,
    *,
    message_bits: int = 256,
    source: "int | None" = 0,
    tol: float = 1e-3,
    value_bits: int = PUSH_SUM_VALUE_BITS,
    restore_mass: bool = False,
    max_rounds: "int | None" = None,
    telemetry=None,
    overlay=None,
) -> BatchOutcome:
    """Kempe-style push-sum averaging, ``reps`` replications at once.

    Every node starts with weight 1 and a uniform ``[0, 1)`` value; each
    round every node keeps half of its ``(value, weight)`` mass and
    pushes the other half to a uniformly random other node.  A replication
    completes when every node's estimate ``value/weight`` is within
    relative error ``tol`` of the true mean; completed replications
    freeze (no further contacts, no further charges), matching the
    sequential engine's early stop.

    Accounting matches the engine path: one ``2 * value_bits``-bit
    message per node per active round, every contact arriving at its
    target's fan-in.  ``message_bits`` and ``source`` are accepted for
    the uniform batch-runner signature but unused — push-sum has no rumor
    and no distinguished source.

    ``telemetry`` (a :class:`repro.obs.telemetry.RunTelemetry` handle, or
    ``None``) samples the batch every ``probe_every`` steps: mean task
    error, still-active replication count, and cumulative messages/bits,
    plus a forced final sample.

    ``overlay`` (a :class:`repro.sim.schedule.BatchClockOverlay`, or
    ``None``) is the event tier: each committed round's contacts fold
    into the per-rep clock matrix and the outcome carries per-rep
    ``sim_time``.  The overlay never touches this runner's ``rng``, so
    rounds/messages/bits are bit-identical with it on or off.
    """
    # message_bits/source are part of the uniform batch-runner signature
    # but push-sum has no rumor and no distinguished source; restore_mass
    # (the sequential engine's repair knob) is moot on this zero-adversity
    # path — no node ever crashes, revives, or loses mass.
    del message_bits, source, restore_mass
    check_tol(tol)
    check_positive_int("value_bits", value_bits)
    cap = max_rounds if max_rounds is not None else round_cap("push-sum", n, tol=tol)
    bits_per_msg = 2 * int(value_bits)

    values = rng.random((reps, n))
    mu = values.mean(axis=1)
    scale = np.maximum(np.abs(mu), 1e-12)
    v = values.copy()
    w = np.ones((reps, n))
    err = np.empty(reps)
    pool = BufferPool()

    def exchange(act, flat_t, valid):
        # Each node keeps half its mass and pushes the other half.
        for mass in (v, w):
            half = _take_rows(pool, "rows", mass, act)
            half *= 0.5
            half += np.bincount(
                flat_t, weights=half.ravel(), minlength=half.size
            ).reshape(half.shape)
            mass[act] = half
        return n, n * bits_per_msg

    def done(act):
        estimate = _take_rows(pool, "rows", v, act)
        estimate /= _take_rows(pool, "weights", w, act)
        estimate -= mu[act, None]
        np.abs(estimate, out=estimate)
        err[act] = estimate.max(axis=1) / scale[act]
        return err[act] <= tol

    ledger = BatchLedger(
        n, reps, telemetry=telemetry, overlay=overlay, columns=_task_columns(lambda: err)
    )
    uniform_rounds(ledger, rng, cap, exchange, done)
    within = (np.abs(v / w - mu[:, None]) / scale[:, None]) <= tol
    return ledger.outcome(
        "push-pull",
        within.sum(axis=1),
        ledger.completion >= 0,
        task_error=err,
        # No adversity on the batch path: the surviving mass is all the
        # mass, so the repaired target is exactly the initial mean.
        task_error_repaired=err.copy(),
    )


# ----------------------------------------------------------------------
# k-rumor all-cast (task "k-rumor"), batched
# ----------------------------------------------------------------------


def batched_k_rumor(
    n: int,
    reps: int,
    rng: np.random.Generator,
    *,
    message_bits: int = 256,
    source: "int | None" = 0,
    k: int = 4,
    max_rounds: "int | None" = None,
    telemetry=None,
    overlay=None,
) -> BatchOutcome:
    """k-rumor all-cast over uniform PUSH-PULL, ``reps`` replications at
    once in ``(reps, n, k)`` arrays.

    Mirrors the sequential :class:`~repro.tasks.state.KRumorState` over
    :func:`~repro.tasks.transports.run_uniform_task`: rumor 0 starts at
    ``source`` (or a uniform node per replication when ``source=None``),
    the other ``k - 1`` at distinct uniform nodes; each round content
    holders push their whole rumor set (a ``k``-bit presence bitmap plus
    ``count * message_bits`` payload), the empty-handed pull, and every
    node receiving a message ORs the sender's round-start snapshot into
    its own set.  Completed replications freeze (no further contacts, no
    further charges), matching the sequential early stop.  ``telemetry``
    and ``overlay`` work as in :func:`batched_push_sum` (the series'
    ``task_error`` is the mean fraction of missing (node, rumor) pairs).

    Memory note: the work arrays are ``(R, n, k)`` bool — chunking in
    :func:`repro.core.broadcast.run_replications` bounds ``R * n``, so
    keep ``batch_elems`` proportionally smaller for very large ``k``.
    """
    check_k(k, n)
    cap = max_rounds if max_rounds is not None else round_cap("k-rumor", n, k=k)
    rumor_bits = int(message_bits)

    holds = np.zeros((reps, n, k), dtype=bool)
    first = resolve_sources(source, reps, n, rng)
    rows = np.arange(reps, dtype=np.int64)
    holds[rows, first, 0] = True
    if k > 1:
        # The k-1 extra sources: distinct uniform nodes per replication,
        # excluding rumor 0's source (smallest random scores win).
        scores = rng.random((reps, n))
        scores[rows, first] = np.inf
        extra = np.argpartition(scores, k - 2, axis=1)[:, : k - 1]
        holds[rows[:, None], extra, np.arange(1, k)[None, :]] = True

    def exchange(act, flat_t, valid):
        a = len(act)
        # Synchronous semantics: fancy indexing already yields a fresh
        # round-start snapshot (mutations land in holds_act / holds).
        snap = holds[act]
        content = snap.any(axis=2)  # (a, n)
        counts = snap.sum(axis=2, dtype=np.int64)  # rumors carried
        holds_act = holds[act]
        flat_holds = holds_act.reshape(a * n, k)
        # Push lane: holders push their whole set; receivers OR.  One
        # bincount per rumor covers the round for every replication.
        push_flat = content.ravel()
        for j in range(k):
            sending_j = push_flat & snap[:, :, j].ravel()
            if sending_j.any():
                got = np.bincount(flat_t[sending_j], minlength=a * n) > 0
                flat_holds[:, j] |= got
        # Pull lane: the empty-handed pull; content-holding targets
        # answer with their snapshot set (each puller appears once, so a
        # direct OR-in suffices).
        target_content = content.ravel()[flat_t].reshape(a, n)
        responded = ~content & target_content
        resp_flat = responded.ravel()
        if resp_flat.any():
            flat_holds[resp_flat] |= snap.reshape(a * n, k)[flat_t[resp_flat]]
        holds[act] = holds_act

        pushes = content.sum(axis=1, dtype=np.int64)
        responses = responded.sum(axis=1, dtype=np.int64)
        # Bits: k-bit presence bitmap + carried rumors, per push and per
        # answered pull (the responder's snapshot payload).
        payload = k + counts * rumor_bits
        resp_bits = np.where(resp_flat, payload.ravel()[flat_t], 0)
        bits = (payload * content).sum(axis=1) + resp_bits.reshape(a, n).sum(axis=1)
        return pushes + responses, bits

    def done(act):
        return holds[act].all(axis=(1, 2))

    def error():
        return 1.0 - holds.mean(axis=(1, 2))

    ledger = BatchLedger(
        n, reps, telemetry=telemetry, overlay=overlay, columns=_task_columns(error)
    )
    uniform_rounds(ledger, rng, cap, exchange, done)
    return ledger.outcome(
        "push-pull",
        holds.all(axis=2).sum(axis=1),
        ledger.completion >= 0,
        task_error=error(),
    )


def _k_rumor_elements_per_node(task_kwargs: dict) -> int:
    """k-rumor's work arrays are ``(R, n, k)``, not ``(R, n)``.  A bad
    ``k`` weighs 1 here; the runner's :func:`check_k` refuses it."""
    k = task_kwargs.get("k", 4)
    return int(k) if is_integer(k) and k > 1 else 1


#: Chunking weight consulted by ``run_replications``: the element budget
#: (``batch_elems``) bounds ``R * n * elements_per_node``, so the
#: ``(R, n, k)`` runner gets proportionally smaller batches instead of
#: blowing the scale tier's memory budget at large k.
batched_k_rumor.elements_per_node = _k_rumor_elements_per_node


# ----------------------------------------------------------------------
# Min/max dissemination (task "min-max"), batched
# ----------------------------------------------------------------------


def batched_min_max(
    n: int,
    reps: int,
    rng: np.random.Generator,
    *,
    message_bits: int = 256,
    source: "int | None" = 0,
    mode: str = "min",
    value_bits: int = PUSH_SUM_VALUE_BITS,
    max_rounds: "int | None" = None,
    telemetry=None,
    overlay=None,
) -> BatchOutcome:
    """Min/max dissemination over uniform gossip, ``reps`` replications
    at once in ``(reps, n)`` arrays.

    Mirrors the sequential :class:`~repro.tasks.state.ExtremeState`:
    every node starts with a uniform ``[0, 1)`` value, everyone pushes
    its round-start best to a uniform random other node each round
    (the idempotent aggregate puts every node on the push lane), and a
    replication completes when every node holds the global extreme.
    ``message_bits`` and ``source`` are accepted for the uniform
    batch-runner signature but unused — there is no rumor and no
    distinguished source.  ``telemetry`` and ``overlay`` work as in
    :func:`batched_push_sum` (the series' ``task_error`` is the mean
    fraction of nodes not yet holding the extreme).
    """
    del message_bits, source  # uniform batch-runner signature, unused
    check_mode(mode)
    check_positive_int("value_bits", value_bits)
    cap = max_rounds if max_rounds is not None else round_cap("uniform", n)
    merge_at = np.minimum.at if mode == "min" else np.maximum.at
    reduce_best = np.min if mode == "min" else np.max
    bits_per_msg = int(value_bits)

    values = rng.random((reps, n))
    best = values.copy()
    target = reduce_best(values, axis=1)

    pool = BufferPool()

    def exchange(act, flat_t, valid):
        # Senders push their round-start best (the snapshot).
        snap = _take_rows(pool, "snapshot", best, act)
        merged = _take_rows(pool, "rows", best, act)
        merge_at(merged.ravel(), flat_t, snap.ravel())
        best[act] = merged
        return n, n * bits_per_msg

    def done(act):
        return (_take_rows(pool, "rows", best, act) == target[act, None]).all(axis=1)

    def holding():
        return (best == target[:, None]).sum(axis=1)

    ledger = BatchLedger(
        n,
        reps,
        telemetry=telemetry,
        overlay=overlay,
        columns=_task_columns(lambda: 1.0 - holding() / float(n)),
    )
    uniform_rounds(ledger, rng, cap, exchange, done)
    counts = holding()
    return ledger.outcome(
        "push-pull", counts, ledger.completion >= 0, task_error=1.0 - counts / float(n)
    )
