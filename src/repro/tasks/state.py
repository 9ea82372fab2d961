"""Per-node task state: what a gossip execution is *about*.

The engine (:mod:`repro.sim.engine`) moves messages; the algorithms
decide who calls whom; a :class:`TaskState` decides what the messages
mean — which per-node content exists at round 0, how content merges when
a message arrives, when the execution is done and how far from done it
is.  :class:`BroadcastState` is the paper's own single-rumor task, which
the PUSH, PULL and PUSH-PULL baselines run on; the other built-in states
cover the three workload families the task layer ships:

* :class:`KRumorState` — k independent rumors, completion = everyone
  holds all k (all-cast); messages carry the sender's whole rumor set,
  so bit cost scales with rumors carried.
* :class:`PushSumState` — Kempe-style ``(value, weight)`` mass pairs;
  completion = every node's ``value/weight`` estimate within relative
  ``tol`` of the true mean.  Mass *moves* (a lost message loses mass),
  which is exactly what makes the task interesting under dynamics.
* :class:`ExtremeState` — min/max dissemination, the idempotent sanity
  case: merging is elementwise min (or max), retransmission is free of
  semantics, and completion = everyone holds the global extreme.

States are transport-agnostic: the same object runs over uniform random
calls (:func:`repro.tasks.transports.run_uniform_task`) and over the
paper's cluster structure (:func:`repro.tasks.transports.run_cluster_task`).

Synchronous semantics: a transport brackets every engine round with
:meth:`TaskState.begin_round` / :meth:`TaskState.end_round`.  Payloads
and pull responses always read the *snapshot* taken at ``begin_round``,
and merges apply to the live arrays, so content received in a round is
never re-transmitted within the same round.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

import numpy as np

from repro.sim.batch import (
    PUSH_SUM_VALUE_BITS,
    check_k,
    check_mode,
    check_positive_int,
    check_tol,
)

#: Weights below this are "no mass": a push-sum node that extracted its
#: whole mass (cluster gather) holds no estimate until the scatter phase.
WEIGHT_FLOOR = 1e-12


class TaskState(abc.ABC):
    """Abstract per-node task state (see the module docstring).

    Subclasses hold numpy arrays of length ``n`` (or ``(n, k)``) and
    implement the content/merge/evaluation surface the transports drive.
    ``srcs`` arguments are always sorted unique alive indices (transports
    build them with ``np.flatnonzero``).
    """

    #: Registered task name (stamped into reports).
    task: str = "task"
    #: Whether staging a push moves content out of the sender (push-sum
    #: mass), so a push may only be staged over an established connection.
    moves_mass: bool = False

    def __init__(self, n: int) -> None:
        self.n = int(n)

    # -- round bracket --------------------------------------------------

    def sync_liveness(self, alive: np.ndarray) -> None:
        """Observe the liveness table before a round is planned.

        Transports call this once per driven round (before
        :meth:`begin_round`), so states that care about membership
        transitions — push-sum's mass-restoration variant re-injecting
        weight at ``ReviveAt``-rejoined nodes — see every revival at the
        round boundary it takes effect.  The default is a no-op.
        """

    def begin_round(self) -> None:
        """Snapshot the round-start view payloads and responses read."""

    def end_round(self) -> None:
        """Post-merge bookkeeping (e.g. refresh push-sum estimates)."""

    # -- content and payloads ------------------------------------------

    @abc.abstractmethod
    def has_content(self, nodes: np.ndarray) -> np.ndarray:
        """Per-node mask: can these nodes answer a pull / push something?"""

    @abc.abstractmethod
    def payload_bits(self, nodes: np.ndarray) -> "int | np.ndarray":
        """Bits of a full-content message from each of ``nodes``."""

    def all_push(self) -> bool:
        """Uniform-transport role rule: True when every alive node pushes
        each round (mass exchange); False splits roles by content —
        holders push, the empty-handed pull."""
        return False

    # -- push path ------------------------------------------------------

    @abc.abstractmethod
    def begin_push(self, srcs: np.ndarray):
        """Stage an outgoing message per src; returns an opaque token.

        Mass-moving states (push-sum) mutate here: the staged half
        leaves the sender whether or not it is later delivered (a lost
        message loses mass).  Monotone states just snapshot.
        """

    def begin_extract(self, srcs: np.ndarray):
        """Stage the sender's *entire* content (cluster gather / relay).

        Mass-moving states remove everything; monotone states fall back
        to :meth:`begin_push` (copying content is free of semantics).
        """
        return self.begin_push(srcs)

    @abc.abstractmethod
    def finish_push(self, token, srcs: np.ndarray, dsts: np.ndarray) -> None:
        """Apply the delivered subset of a staged push.

        ``srcs``/``dsts`` are the engine's delivered pairs — a subset of
        the token's senders, with possibly repeated destinations.
        """

    # -- pull path ------------------------------------------------------

    @abc.abstractmethod
    def deliver_pull(self, receivers: np.ndarray, responders: np.ndarray) -> None:
        """Merge the responders' snapshot content into the receivers."""

    # -- estimates (result dissemination) ------------------------------

    def estimate_mask(self, nodes: np.ndarray) -> np.ndarray:
        """Who holds an adoptable result (cluster scatter/catch-up)."""
        return self.has_content(nodes)

    def estimate_bits(self, nodes: np.ndarray) -> "int | np.ndarray":
        """Bits of a result message (defaults to the full payload)."""
        return self.payload_bits(nodes)

    def adopt(self, receivers: np.ndarray, responders: np.ndarray) -> None:
        """Adopt the responders' result (defaults to a content merge)."""
        self.deliver_pull(receivers, responders)

    def relay_candidates(self, followers: np.ndarray) -> Optional[np.ndarray]:
        """Followers that must relay to their leader during cluster mix.

        ``None`` (default) means "whoever received this round" — right
        for monotone content, where the original holder retransmits
        anyway.  Mass-moving states override with a mass test so a lost
        relay is retried instead of stranding mass at a follower.
        """
        return None

    # -- evaluation -----------------------------------------------------

    @abc.abstractmethod
    def completion_mask(self) -> np.ndarray:
        """Per-node done mask (the report's ``informed`` analogue)."""

    def done(self, alive: np.ndarray) -> bool:
        """True when every alive node is individually complete."""
        idx = np.flatnonzero(alive)
        return bool(self.completion_mask()[idx].all()) if len(idx) else True

    @abc.abstractmethod
    def error(self, alive: np.ndarray) -> float:
        """Distance from completion over the alive nodes (task semantics)."""

    def error_breakdown(self, alive: np.ndarray) -> Dict[str, float]:
        """Additional named error figures for the final report.

        Keys land in the report's ``extras`` next to ``task_error`` (and
        stream through the replication layer when recognised there).
        Default: none.
        """
        return {}

    def progress(self, alive: np.ndarray) -> float:
        """A scalar in [0, 1] for the ``<task>.step`` progress events."""
        # count_nonzero over a fused mask: no fancy-index gather, so the
        # per-round events and ``informed`` probe stay cheap at n = 2^18.
        live = np.count_nonzero(alive)
        if not live:
            return 1.0
        return float(np.count_nonzero(self.completion_mask() & alive) / live)

    def cap_schedule(self) -> Tuple[str, Dict[str, object]]:
        """This task's :func:`repro.sim.caps.round_cap` schedule over
        uniform calls, and the task knobs that size it."""
        return "uniform", {}

    def extras(self) -> Dict[str, object]:
        """Task-specific scalars for the report's ``extras``."""
        return {}


class BroadcastState(TaskState):
    """Single-rumor broadcast: the source holds the rumor, completion =
    every alive node informed.

    A message is the bare rumor (``rumor_bits``); pushes and answered
    pulls inform their receivers, and only the round-start informed set
    transmits.
    """

    task = "broadcast"

    def __init__(self, net, source: int) -> None:
        super().__init__(net.n)
        self.rumor_bits = net.sizes.rumor_bits
        self.informed = np.zeros(self.n, dtype=bool)
        self.informed[source] = net.alive[source]
        self._snap = self.informed.copy()

    def begin_round(self) -> None:
        np.copyto(self._snap, self.informed)

    def has_content(self, nodes: np.ndarray) -> np.ndarray:
        return self._snap[nodes]

    def payload_bits(self, nodes: np.ndarray) -> int:
        return self.rumor_bits

    def begin_push(self, srcs: np.ndarray):
        return None

    def finish_push(self, token, srcs: np.ndarray, dsts: np.ndarray) -> None:
        self.informed[dsts] = True

    def deliver_pull(self, receivers: np.ndarray, responders: np.ndarray) -> None:
        self.informed[receivers] = True

    def completion_mask(self) -> np.ndarray:
        return self.informed

    def error(self, alive: np.ndarray) -> float:
        return 1.0 - self.progress(alive)


class KRumorState(TaskState):
    """k-rumor all-cast: k independent sources, everyone must hold all k.

    State is an ``(n, k)`` holds matrix; a message carries the sender's
    whole rumor set — a k-bit presence bitmap plus ``count * rumor_bits``
    payload — so bit cost scales with the rumors actually carried.
    """

    task = "k-rumor"

    def __init__(
        self,
        net,
        rng: np.random.Generator,
        *,
        message_bits: int = 256,
        source: Optional[int] = 0,
        k: int = 4,
    ) -> None:
        super().__init__(net.n)
        alive = net.alive_indices()
        check_k(k, len(alive))
        self.k = int(k)
        self.rumor_bits = int(message_bits)
        self.holds = np.zeros((self.n, self.k), dtype=bool)
        # Sources: the broadcast ``source`` seeds rumor 0 when alive (so
        # k=1 degenerates to the familiar single-source setting); the
        # remaining k-1 sources are distinct uniform alive nodes.
        sources = []
        if source is not None and net.alive[source]:
            sources.append(int(source))
        pool = alive[~np.isin(alive, sources)]
        extra = rng.choice(pool, size=self.k - len(sources), replace=False)
        sources.extend(int(s) for s in extra)
        self.sources = np.asarray(sources[: self.k], dtype=np.int64)
        self.holds[self.sources, np.arange(self.k)] = True
        self._snap = self.holds.copy()

    def begin_round(self) -> None:
        np.copyto(self._snap, self.holds)

    def has_content(self, nodes: np.ndarray) -> np.ndarray:
        return self._snap[nodes].any(axis=1)

    def payload_bits(self, nodes: np.ndarray) -> np.ndarray:
        counts = self._snap[nodes].sum(axis=1, dtype=np.int64)
        return self.k + counts * self.rumor_bits

    def begin_push(self, srcs: np.ndarray):
        return (srcs, self._snap[srcs])

    def finish_push(self, token, srcs: np.ndarray, dsts: np.ndarray) -> None:
        staged_srcs, staged = token
        rows = staged[np.searchsorted(staged_srcs, srcs)]
        np.logical_or.at(self.holds, dsts, rows)

    def deliver_pull(self, receivers: np.ndarray, responders: np.ndarray) -> None:
        self.holds[receivers] |= self._snap[responders]

    def completion_mask(self) -> np.ndarray:
        return self.holds.all(axis=1)

    def error(self, alive: np.ndarray) -> float:
        """Missing-content fraction: 1 - mean fill of the alive rows."""
        idx = np.flatnonzero(alive)
        if len(idx) == 0:
            return 0.0
        return float(1.0 - self.holds[idx].mean())

    def cap_schedule(self) -> Tuple[str, Dict[str, object]]:
        return "k-rumor", {"k": self.k}

    def extras(self) -> Dict[str, object]:
        return {"task_k": self.k}


class PushSumState(TaskState):
    """Push-sum averaging (Kempe et al., FOCS 2003).

    Every alive node starts with weight 1 and a uniform ``[0, 1)`` value;
    mass moves through messages (half on a uniform exchange, everything
    on a cluster gather), and ``estimate = value/weight`` converges to
    the true mean wherever mass mixes.  Estimates are tracked separately
    from mass: a cluster scatter disseminates the leader's *estimate*
    without moving mass.

    ``restore_mass=True`` models a system with repair: a node revived by
    a :class:`~repro.sim.dynamics.ReviveAt` event re-joins as a fresh
    participant, re-injecting unit weight and its original value (its
    pre-crash mass, wherever it ended up, is untouched).  Every run
    reports two errors: the *biased* one against the initial mean (what
    an operator who remembers the original population sees — mass lost
    to churn and loss windows drifts it) and the *repaired* one against
    the current self-consistent target ``sum(v) / sum(w)`` over the
    surviving mass, which is where the protocol actually converges.
    """

    task = "push-sum"
    moves_mass = True

    def __init__(
        self,
        net,
        rng: np.random.Generator,
        *,
        message_bits: int = 256,
        source: Optional[int] = 0,
        tol: float = 1e-3,
        value_bits: int = PUSH_SUM_VALUE_BITS,
        restore_mass: bool = False,
    ) -> None:
        super().__init__(net.n)
        check_tol(tol)
        check_positive_int("value_bits", value_bits)
        del message_bits, source  # no rumor, no distinguished source
        self.tol = float(tol)
        self.value_bits = int(value_bits)
        self.restore_mass = bool(restore_mass)
        self.values = rng.random(self.n)
        alive = net.alive
        self.mu = float(self.values[alive].mean()) if alive.any() else 0.0
        self._scale = max(abs(self.mu), 1e-12)
        self.v = np.where(alive, self.values, 0.0)
        self.w = alive.astype(np.float64)
        self.est = np.full(self.n, np.nan)
        self.end_round()  # initial estimates = own value
        self._est_snap = self.est.copy()
        self._prev_alive = alive.copy()
        self.mass_restored = 0

    def sync_liveness(self, alive: np.ndarray) -> None:
        revived = alive & ~self._prev_alive
        if revived.any() and self.restore_mass:
            self.v[revived] = self.values[revived]
            self.w[revived] = 1.0
            self.est[revived] = self.values[revived]
            self.mass_restored += int(revived.sum())
        np.copyto(self._prev_alive, alive)

    def begin_round(self) -> None:
        np.copyto(self._est_snap, self.est)

    def end_round(self) -> None:
        held = self.w > WEIGHT_FLOOR
        self.est[held] = self.v[held] / self.w[held]

    def all_push(self) -> bool:
        return True

    def has_content(self, nodes: np.ndarray) -> np.ndarray:
        return self.w[nodes] > WEIGHT_FLOOR

    def payload_bits(self, nodes: np.ndarray) -> int:
        return 2 * self.value_bits

    def _stage(self, srcs: np.ndarray, fraction: float):
        v_out = self.v[srcs] * fraction
        w_out = self.w[srcs] * fraction
        self.v[srcs] -= v_out
        self.w[srcs] -= w_out
        return (srcs, v_out, w_out)

    def begin_push(self, srcs: np.ndarray):
        return self._stage(srcs, 0.5)

    def begin_extract(self, srcs: np.ndarray):
        return self._stage(srcs, 1.0)

    def finish_push(self, token, srcs: np.ndarray, dsts: np.ndarray) -> None:
        staged_srcs, v_out, w_out = token
        pos = np.searchsorted(staged_srcs, srcs)
        np.add.at(self.v, dsts, v_out[pos])
        np.add.at(self.w, dsts, w_out[pos])

    def deliver_pull(self, receivers: np.ndarray, responders: np.ndarray) -> None:
        # Mass cannot move through a pull response without the responder
        # splitting among an unknown number of pullers; push-sum only
        # disseminates *estimates* on the pull path.
        self.adopt(receivers, responders)

    def estimate_mask(self, nodes: np.ndarray) -> np.ndarray:
        return np.isfinite(self._est_snap[nodes])

    def estimate_bits(self, nodes: np.ndarray) -> int:
        return self.value_bits

    def adopt(self, receivers: np.ndarray, responders: np.ndarray) -> None:
        self.est[receivers] = self._est_snap[responders]

    def relay_candidates(self, followers: np.ndarray) -> np.ndarray:
        return followers[self.w[followers] > WEIGHT_FLOOR]

    def _rel_err(self) -> np.ndarray:
        err = np.full(self.n, np.inf)
        held = np.isfinite(self.est)
        err[held] = np.abs(self.est[held] - self.mu) / self._scale
        return err

    def completion_mask(self) -> np.ndarray:
        return self._rel_err() <= self.tol

    def error(self, alive: np.ndarray) -> float:
        """Max relative error of the alive estimates (inf if any node
        holds no estimate at all)."""
        idx = np.flatnonzero(alive)
        if len(idx) == 0:
            return 0.0
        return float(self._rel_err()[idx].max())

    def repaired_target(self, alive: np.ndarray) -> float:
        """The self-consistent mean of the surviving injected mass.

        Push-sum converges to ``sum(v) / sum(w)`` over whatever mass is
        still mixing; churn (and, with ``restore_mass``, re-injection)
        moves that target away from the initial ``mu``.  Measured over
        the alive mass holders; falls back to ``mu`` when no alive node
        holds mass.
        """
        mass = (self.w > WEIGHT_FLOOR) & np.asarray(alive, dtype=bool)
        total_w = float(self.w[mass].sum())
        if total_w <= WEIGHT_FLOOR:
            return self.mu
        return float(self.v[mass].sum()) / total_w

    def error_breakdown(self, alive: np.ndarray) -> Dict[str, float]:
        """The repaired error: max relative distance of the alive
        estimates from :meth:`repaired_target` (the biased error against
        the initial mean is ``error()``)."""
        idx = np.flatnonzero(alive)
        if len(idx) == 0:
            return {"task_error_repaired": 0.0}
        target = self.repaired_target(alive)
        scale = max(abs(target), 1e-12)
        held = np.isfinite(self.est[idx])
        if not held.all():
            return {"task_error_repaired": float("inf")}
        repaired = float(np.abs(self.est[idx] - target).max() / scale)
        return {"task_error_repaired": repaired}

    def cap_schedule(self) -> Tuple[str, Dict[str, object]]:
        return "push-sum", {"tol": self.tol}

    def extras(self) -> Dict[str, object]:
        out: Dict[str, object] = {"task_mu": self.mu, "task_tol": self.tol}
        if self.restore_mass:
            out["task_restore_mass"] = True
            out["task_mass_restored"] = self.mass_restored
        return out


class ExtremeState(TaskState):
    """Min/max dissemination — the idempotent aggregate sanity case.

    Every alive node starts with a uniform ``[0, 1)`` value; merging is
    elementwise min (or max), so loss and churn cost only retransmission
    rounds, never correctness.  Completion = every alive node holds the
    global extreme of the *initially alive* values.
    """

    task = "min-max"

    def __init__(
        self,
        net,
        rng: np.random.Generator,
        *,
        message_bits: int = 256,
        source: Optional[int] = 0,
        mode: str = "min",
        value_bits: int = PUSH_SUM_VALUE_BITS,
    ) -> None:
        super().__init__(net.n)
        check_mode(mode)
        check_positive_int("value_bits", value_bits)
        del message_bits, source
        self.mode = mode
        self.value_bits = int(value_bits)
        self._merge = np.minimum if mode == "min" else np.maximum
        self._merge_at = np.minimum.at if mode == "min" else np.maximum.at
        self.values = rng.random(self.n)
        alive = net.alive
        idle = np.inf if mode == "min" else -np.inf
        self.best = np.where(alive, self.values, idle)
        pool = self.values[alive]
        self.target = float(pool.min() if mode == "min" else pool.max()) if len(pool) else idle
        self._snap = self.best.copy()

    def begin_round(self) -> None:
        np.copyto(self._snap, self.best)

    def has_content(self, nodes: np.ndarray) -> np.ndarray:
        return np.isfinite(self._snap[nodes])

    def payload_bits(self, nodes: np.ndarray) -> int:
        return self.value_bits

    def all_push(self) -> bool:
        return True

    def begin_push(self, srcs: np.ndarray):
        return (srcs, self._snap[srcs])

    def finish_push(self, token, srcs: np.ndarray, dsts: np.ndarray) -> None:
        staged_srcs, staged = token
        self._merge_at(self.best, dsts, staged[np.searchsorted(staged_srcs, srcs)])

    def deliver_pull(self, receivers: np.ndarray, responders: np.ndarray) -> None:
        self.best[receivers] = self._merge(
            self.best[receivers], self._snap[responders]
        )

    def completion_mask(self) -> np.ndarray:
        return self.best == self.target

    def error(self, alive: np.ndarray) -> float:
        """Fraction of alive nodes not yet holding the global extreme."""
        idx = np.flatnonzero(alive)
        if len(idx) == 0:
            return 0.0
        return float(1.0 - self.completion_mask()[idx].mean())

    def extras(self) -> Dict[str, object]:
        return {"task_mode": self.mode, "task_target": self.target}
