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
broadcast and its push-sum, k-rumor and min-max task runners — are one
round loop, :func:`repro.tasks.transports.run_uniform_batch`, which
draws each round's contacts here (:func:`random_targets_batch`, or the
bound graph's sampler), counts their fan-in (:func:`per_rep_max_fanin`),
folds them into the clock overlay and charges the ledger.  The
phase-structured cluster pipeline (Cluster1/Cluster2,
:mod:`repro.sim.batch_cluster`) charges the same ledger from its own
primitives.

This module knows no task.  What a broadcast, push-sum, k-rumor or
min-max message means (initial draws, merge, payload bits, completion,
error) is written once, in :mod:`repro.tasks.state`, whose states hold
``R`` replication rows in flat arrays of ``R * n`` positions (row
``r``'s node ``i`` at ``r * n + i``) and serve both tiers.

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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


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
#: (:class:`~repro.sim.schedule.BatchClockOverlay`).  Above the cap a
#: chunk is one replication, and each intermediate is ``8 n`` bytes
#: (2 MiB at ``n = 2**18``).  The cluster tier frees a block twice that
#: size at each chunk's end, which lifts glibc's mmap and trim
#: thresholds above them, so more of them reuse heap memory rather
#: than being faulted in again
#: (:class:`~repro.sim.batch_cluster.ClusterBatch`).
#: Python dispatch per round is tens of microseconds, so even a few-rep
#: chunk amortises it.
DEFAULT_BATCH_ELEMS = 2**16


def batch_size(
    n: int,
    reps: int,
    max_elems: int = DEFAULT_BATCH_ELEMS,
    elements_per_node: int = 1,
) -> int:
    """Replications per batch for networks of size ``n`` (at least 1).

    ``elements_per_node`` is the width of the runner's per-node state
    (k-rumor's ``(R * n, k)`` holds pass ``k``, its
    :meth:`~repro.tasks.state.TaskState.elements_per_node`): it divides
    the element budget alongside ``n`` so the chunking stays honest
    whether the caller takes the default budget or passes ``max_elems``
    explicitly.
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
    #: Per-rep final task error (every task but broadcast; None for the
    #: broadcast-shaped outcomes).
    task_error: Optional[np.ndarray] = None
    #: Per-rep repaired task error (push-sum: the error against the
    #: surviving-mass target, the state's
    #: :meth:`~repro.tasks.state.PushSumState.row_error_breakdown`).  On
    #: the zero-adversity batch path no mass is lost, so it differs from
    #: ``task_error`` only by the rounding of that target; vector- and
    #: reset-engine summaries stream the same metrics.
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
    (:func:`repro.core.broadcast.check_config`), the uniform round loops
    that plugin algorithms and batch runners call directly
    (:func:`~repro.tasks.transports.run_uniform_task`,
    :func:`~repro.tasks.transports.run_uniform_batch`) and the
    median-counter loop call this, so a bad cap is one config error
    everywhere rather than a negative round count, a silently rounded-up
    float or a traceback from ``range()``.
    """
    if max_rounds is not None and (not is_integer(max_rounds) or max_rounds < 0):
        raise ValueError(
            f"max_rounds must be a non-negative integer, got {max_rounds}"
        )
