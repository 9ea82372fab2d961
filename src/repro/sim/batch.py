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
:func:`repro.registry.register_batch_runner`) that advances all
replications with the same accounting conventions as the engine
(:mod:`repro.sim.metrics`) and returns a :class:`BatchOutcome` of per-rep
scalars.  Uniform schedule-driven protocols (PUSH-PULL) fit naturally:
every replication runs the same fixed w.h.p. schedule, so the batch is
perfectly rectangular.  Phase-structured algorithms (Cluster2) do not —
they replicate through the memory-lean sequential engine instead
(:class:`repro.core.broadcast.ReplicationEngine`).

Determinism: a batch is a deterministic function of its generator and
shape.  The draws are made at the canonical lean index dtype (int32 for
every ``n < 2**31``), in rep-major ``(R, n)`` blocks — a *different* (but
identically distributed) stream than R sequential runs, which is why the
batched path is validated statistically (``tests/test_whp_bounds.py``)
rather than by fingerprint.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.sim.network import resolve_index_dtype

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
        dtype = resolve_index_dtype(n, "auto")
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
    (:func:`repro.core.broadcast.check_config`) and the sequential round
    loops that plugin algorithms call directly
    (:func:`~repro.sim.protocol.run_protocol`,
    :func:`~repro.tasks.transports.run_uniform_task`) call this, so a bad
    cap is one config error everywhere rather than a negative round
    count, a silently rounded-up float or a traceback from ``range()``.
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


def uniform_round_cap(n: int) -> int:
    """The generic uniform-gossip task schedule: ``O(log n)`` with the
    same additive slack the PUSH baseline uses (Pittel's bound shape).
    Shared between :mod:`repro.tasks.state` and the batch runners here
    so both execution shapes run identical schedules."""
    return math.ceil(math.log2(max(n, 2)) + math.log(max(n, 2))) + 12


def k_rumor_round_cap(n: int, k: int) -> int:
    """The k-rumor schedule: each rumor spreads like an independent
    PUSH/PULL epidemic; a union bound over ``k`` adds a ``log k`` term."""
    return uniform_round_cap(n) + math.ceil(math.log2(k + 1))


# ----------------------------------------------------------------------
# Push-sum averaging (task "push-sum"), batched
# ----------------------------------------------------------------------

#: Bits per scalar in a push-sum payload; one message carries the
#: ``(value, weight)`` pair, i.e. ``2 * PUSH_SUM_VALUE_BITS`` bits.
PUSH_SUM_VALUE_BITS = 64


def push_sum_round_cap(n: int, tol: float) -> int:
    """The push-sum schedule: ``O(log n + log 1/tol)`` rounds (Kempe et
    al., FOCS 2003) with generous laptop-scale constants — the driver
    stops early at convergence, so slack only pads the failure path."""
    return 4 * (
        math.ceil(math.log2(max(n, 2))) + math.ceil(math.log2(1.0 / tol))
    ) + 24


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
    cap = max_rounds if max_rounds is not None else push_sum_round_cap(n, tol)
    bits_per_msg = 2 * int(value_bits)

    values = rng.random((reps, n))
    mu = values.mean(axis=1)
    scale = np.maximum(np.abs(mu), 1e-12)
    v = values.copy()
    w = np.ones((reps, n))

    rounds = np.zeros(reps, dtype=np.int64)
    messages = np.zeros(reps, dtype=np.int64)
    bits = np.zeros(reps, dtype=np.int64)
    max_fanin = np.zeros(reps, dtype=np.int64)
    completion = np.full(reps, -1, dtype=np.int64)
    err = np.abs(v / w - mu[:, None]).max(axis=1) / scale

    active = err > tol
    completion[~active] = 0
    for step in range(cap):
        act = np.flatnonzero(active)
        if len(act) == 0:
            break
        targets = random_targets_batch(rng, len(act), n)
        local_offsets = (np.arange(len(act), dtype=np.int64) * n)[:, None]
        flat_t = (targets.astype(np.int64) + local_offsets).ravel()

        v_half = v[act] * 0.5
        w_half = w[act] * 0.5
        v_recv = np.bincount(flat_t, weights=v_half.ravel(), minlength=len(act) * n)
        w_recv = np.bincount(flat_t, weights=w_half.ravel(), minlength=len(act) * n)
        v[act] = v_half + v_recv.reshape(len(act), n)
        w[act] = w_half + w_recv.reshape(len(act), n)
        if overlay is not None:
            overlay.full_round(act, targets)

        rounds[act] += 1
        messages[act] += n
        bits[act] += n * bits_per_msg
        max_fanin[act] = np.maximum(
            max_fanin[act], per_rep_max_fanin(flat_t, len(act), n)
        )

        err[act] = np.abs(v[act] / w[act] - mu[act, None]).max(axis=1) / scale[act]
        newly_done = act[err[act] <= tol]
        completion[newly_done] = step + 1
        active[newly_done] = False

        if telemetry is not None and (step + 1) % telemetry.probe_every == 0:
            row = dict(
                round=step + 1,
                task_error=float(err.mean()),
                active_reps=int(active.sum()),
                messages=int(messages.sum()),
                bits=int(bits.sum()),
            )
            if overlay is not None:
                row["sim_time"] = float(overlay.sim_time.max())
            telemetry.series.append(**row)

    if telemetry is not None:
        row = dict(
            round=int(rounds.max()),
            task_error=float(err.mean()),
            active_reps=int(active.sum()),
            messages=int(messages.sum()),
            bits=int(bits.sum()),
        )
        if overlay is not None:
            row["sim_time"] = float(overlay.sim_time.max())
        telemetry.series.force(**row)

    within = (np.abs(v / w - mu[:, None]) / scale[:, None]) <= tol
    return BatchOutcome(
        algorithm="push-pull",
        n=n,
        rounds=rounds,
        completion_round=completion,
        messages=messages,
        bits=bits,
        max_fanin=max_fanin,
        informed_counts=within.sum(axis=1),
        success=completion >= 0,
        task_error=err,
        # No adversity on the batch path: the surviving mass is all the
        # mass, so the repaired target is exactly the initial mean.
        task_error_repaired=err.copy(),
        sim_time=None if overlay is None else overlay.sim_time.copy(),
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
    further charges), matching the sequential early stop.

    Memory note: the work arrays are ``(R, n, k)`` bool — chunking in
    :func:`repro.core.broadcast.run_replications` bounds ``R * n``, so
    keep ``batch_elems`` proportionally smaller for very large ``k``.
    """
    check_k(k, n)
    cap = max_rounds if max_rounds is not None else k_rumor_round_cap(n, k)
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

    rounds = np.zeros(reps, dtype=np.int64)
    messages = np.zeros(reps, dtype=np.int64)
    bits = np.zeros(reps, dtype=np.int64)
    max_fanin = np.zeros(reps, dtype=np.int64)
    completion = np.full(reps, -1, dtype=np.int64)
    active = ~holds.all(axis=(1, 2))
    completion[~active] = 0

    for step in range(cap):
        act = np.flatnonzero(active)
        a = len(act)
        if a == 0:
            break
        # Synchronous semantics: fancy indexing already yields a fresh
        # round-start snapshot (mutations land in holds_act / holds).
        snap = holds[act]
        content = snap.any(axis=2)  # (a, n)
        counts = snap.sum(axis=2, dtype=np.int64)  # rumors carried
        targets = random_targets_batch(rng, a, n)
        offsets = (np.arange(a, dtype=np.int64) * n)[:, None]
        flat_t = (targets.astype(np.int64) + offsets).ravel()

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
        if overlay is not None:
            # One contact per node per round: the same target serves the
            # push and pull lanes, exactly as in the accounting above.
            overlay.full_round(act, targets)

        pushes = content.sum(axis=1, dtype=np.int64)
        responses = responded.sum(axis=1, dtype=np.int64)
        messages[act] += pushes + responses
        # Bits: k-bit presence bitmap + carried rumors, per push and per
        # answered pull (the responder's snapshot payload).
        payload = k + counts * rumor_bits
        bits[act] += (payload * content).sum(axis=1)
        flat_payload = payload.ravel()
        resp_bits = np.where(resp_flat, flat_payload[flat_t], 0)
        bits[act] += resp_bits.reshape(a, n).sum(axis=1)
        rounds[act] += 1
        max_fanin[act] = np.maximum(
            max_fanin[act], per_rep_max_fanin(flat_t, a, n)
        )

        done = holds[act].all(axis=(1, 2))
        newly = act[done]
        completion[newly] = step + 1
        active[newly] = False

    complete_nodes = holds.all(axis=2).sum(axis=1)
    return BatchOutcome(
        algorithm="push-pull",
        n=n,
        rounds=rounds,
        completion_round=completion,
        messages=messages,
        bits=bits,
        max_fanin=max_fanin,
        informed_counts=complete_nodes,
        success=completion >= 0,
        task_error=1.0 - holds.mean(axis=(1, 2)),
        sim_time=None if overlay is None else overlay.sim_time.copy(),
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
    distinguished source.
    """
    del message_bits, source  # uniform batch-runner signature, unused
    check_mode(mode)
    check_positive_int("value_bits", value_bits)
    cap = max_rounds if max_rounds is not None else uniform_round_cap(n)
    merge_at = np.minimum.at if mode == "min" else np.maximum.at
    reduce_best = np.min if mode == "min" else np.max
    bits_per_msg = int(value_bits)

    values = rng.random((reps, n))
    best = values.copy()
    target = reduce_best(values, axis=1)

    rounds = np.zeros(reps, dtype=np.int64)
    messages = np.zeros(reps, dtype=np.int64)
    bits = np.zeros(reps, dtype=np.int64)
    max_fanin = np.zeros(reps, dtype=np.int64)
    completion = np.full(reps, -1, dtype=np.int64)
    active = ~(best == target[:, None]).all(axis=1)
    completion[~active] = 0

    for step in range(cap):
        act = np.flatnonzero(active)
        a = len(act)
        if a == 0:
            break
        snap = best[act]  # fancy indexing: already a fresh snapshot
        targets = random_targets_batch(rng, a, n)
        offsets = (np.arange(a, dtype=np.int64) * n)[:, None]
        flat_t = (targets.astype(np.int64) + offsets).ravel()

        flat_best = best[act].reshape(-1)
        merge_at(flat_best, flat_t, snap.ravel())
        best[act] = flat_best.reshape(a, n)
        if overlay is not None:
            overlay.full_round(act, targets)

        rounds[act] += 1
        messages[act] += n
        bits[act] += n * bits_per_msg
        max_fanin[act] = np.maximum(
            max_fanin[act], per_rep_max_fanin(flat_t, a, n)
        )

        done = (best[act] == target[act, None]).all(axis=1)
        newly = act[done]
        completion[newly] = step + 1
        active[newly] = False

    holding = (best == target[:, None]).sum(axis=1)
    return BatchOutcome(
        algorithm="push-pull",
        n=n,
        rounds=rounds,
        completion_round=completion,
        messages=messages,
        bits=bits,
        max_fanin=max_fanin,
        informed_counts=holding,
        success=completion >= 0,
        task_error=1.0 - holding / float(n),
        sim_time=None if overlay is None else overlay.sim_time.copy(),
    )
