"""Per-node task state: what a gossip execution is *about*.

The engine (:mod:`repro.sim.engine`) moves messages; the algorithms
decide who calls whom; a :class:`TaskState` decides what the messages
mean — which per-node content exists at round 0, how content merges when
a message arrives, when the execution is done and how far from done it
is.  This module is the one place each task's rule is written: the
sequential tier and the ``(R, n)`` vector tier drive the same states.
:class:`BroadcastState` is the paper's own single-rumor task, which the
PUSH, PULL and PUSH-PULL baselines run on; the other built-in states
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

Row layout: a state holds ``reps`` replication rows of ``n`` nodes in
flat arrays of ``reps * n`` *positions*; row ``r``'s node ``i`` sits at
position ``r * n + i`` (k-rumor's holds matrix is ``(reps * n, k)``).
Per-row constants (push-sum's mean and scale, min-max's target) are
length-``reps`` arrays, and :meth:`TaskState.row_counts` /
:meth:`TaskState.row_errors` report per row.  The sequential tier is
the ``reps = 1`` case, where a position is a node index: the factories
(``KRumorState(net, rng, ...)``) build it, and
:func:`repro.tasks.transports.run_uniform_task` (uniform random calls)
and :func:`repro.tasks.transports.run_cluster_task` (the paper's
cluster structure) drive it.  Each built-in state's ``batch``
constructor draws ``reps`` rows at once, all nodes alive, and
:func:`repro.tasks.transports.run_uniform_batch` drives them over
:func:`repro.sim.batch.uniform_rounds`.

Synchronous semantics: a transport brackets every engine round with
:meth:`TaskState.begin_round` / :meth:`TaskState.end_round`.  Payloads
and pull responses always read the *snapshot* taken at ``begin_round``,
and merges apply to the live arrays, so content received in a round is
never re-transmitted within the same round.
"""

from __future__ import annotations

import abc
import numbers
from typing import Dict, Optional, Tuple

import numpy as np

from repro.sim.batch import check_positive_int, is_integer, resolve_sources
from repro.sim.buffers import BufferPool

#: Weights below this are "no mass": a push-sum node that extracted its
#: whole mass (cluster gather) holds no estimate until the scatter phase.
WEIGHT_FLOOR = 1e-12

#: Bits per scalar in a push-sum payload; one message carries the
#: ``(value, weight)`` pair, i.e. ``2 * PUSH_SUM_VALUE_BITS`` bits.
PUSH_SUM_VALUE_BITS = 64


# Task knobs: one check each, called by the states' constructors on both
# tiers, so a bad knob is the same one-line error on every engine.


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


def _delivered(token, srcs):
    """The staged payloads of the delivered senders ``srcs``: all of them
    when the transport hands back the staged senders themselves (the
    batch tier's whole-row path), else a subset found by binary search."""
    staged_srcs, *staged = token
    if srcs is staged_srcs:
        return staged
    pos = np.searchsorted(staged_srcs, srcs)
    return [payload[pos] for payload in staged]


def _take(matrix: np.ndarray, nodes) -> np.ndarray:
    """``matrix``'s rows at ``nodes``: a view for a slice, else one
    ``np.take`` (fancy-indexing short rows costs about ten times as much)."""
    return matrix[nodes] if isinstance(nodes, slice) else np.take(matrix, nodes, axis=0)


def _fold_columns(op, matrix: np.ndarray, dtype=bool) -> np.ndarray:
    """``op``-reduce each row of a narrow ``(m, k)`` matrix one column at
    a time: a reduction along a short last axis costs several times as
    much."""
    out = matrix[:, 0].astype(dtype)
    for j in range(1, matrix.shape[1]):
        op(out, matrix[:, j], out=out)
    return out


class TaskState(abc.ABC):
    """Abstract per-node task state (see the module docstring).

    Subclasses hold numpy arrays over ``reps * n`` positions (or
    ``(reps * n, k)``) and implement the content/merge/evaluation
    surface the transports drive.  ``nodes``/``srcs`` arguments are
    sorted unique positions: index arrays (transports build them with
    ``np.flatnonzero``), or ``slice(None)`` for every position, which
    reads whole rows as views.
    """

    #: Registered task name (stamped into reports).
    task: str = "task"
    #: Whether staging a push moves content out of the sender (push-sum
    #: mass), so a push may only be staged over an established connection.
    moves_mass: bool = False

    def __init__(self, n: int, reps: int = 1) -> None:
        self.n = int(n)
        self.reps = int(reps)

    @classmethod
    def _rows(cls, n: int, reps: int):
        """An unfilled ``reps``-row state, for a ``batch`` constructor."""
        state = cls.__new__(cls)
        TaskState.__init__(state, n, reps)
        return state

    @classmethod
    def elements_per_node(cls, task_kwargs: dict) -> int:
        """Array elements each position holds under the task knobs
        ``task_kwargs``: the vector engine's element budget bounds
        ``R * n`` times this."""
        return 1

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
    def has_content(self, nodes) -> np.ndarray:
        """Per-node mask: can these nodes answer a pull / push something?"""

    @abc.abstractmethod
    def payload_bits(self, nodes) -> "int | np.ndarray":
        """Bits of a full-content message from each of ``nodes``."""

    def all_push(self) -> bool:
        """Uniform-transport role rule: True when every alive node pushes
        each round (mass exchange); False splits roles by content —
        holders push, the empty-handed pull."""
        return False

    # -- push path ------------------------------------------------------

    @abc.abstractmethod
    def begin_push(self, srcs):
        """Stage an outgoing message per src; returns an opaque token.

        Mass-moving states (push-sum) mutate here: the staged half
        leaves the sender whether or not it is later delivered (a lost
        message loses mass).  Monotone states just snapshot.
        """

    def begin_extract(self, srcs):
        """Stage the sender's *entire* content (cluster gather / relay).

        Mass-moving states remove everything; monotone states fall back
        to :meth:`begin_push` (copying content is free of semantics).
        """
        return self.begin_push(srcs)

    @abc.abstractmethod
    def finish_push(self, token, srcs, dsts: np.ndarray) -> None:
        """Apply the delivered subset of a staged push.

        ``srcs``/``dsts`` are the engine's delivered pairs — a subset of
        the token's senders (or those senders themselves), with possibly
        repeated destinations.
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
        """Per-position done mask (the report's ``informed`` analogue)."""

    def done(self, alive: np.ndarray) -> bool:
        """True when every alive node is individually complete."""
        idx = np.flatnonzero(alive)
        return bool(self.completion_mask()[idx].all()) if len(idx) else True

    def row_counts(self, rows=None) -> np.ndarray:
        """Complete positions per row of ``rows`` (default: every row)."""
        done = self.completion_mask().reshape(self.reps, self.n)
        return np.count_nonzero(done if rows is None else done[rows], axis=1)

    def row_errors(self, alive: np.ndarray) -> np.ndarray:
        """Per row, the distance from completion over the ``alive``
        positions.  Default: the fraction of them not yet complete (0 for
        a row with none alive)."""
        live = np.count_nonzero(alive.reshape(self.reps, self.n), axis=1)
        done = self.completion_mask() & alive
        held = np.count_nonzero(done.reshape(self.reps, self.n), axis=1)
        return np.where(live > 0, 1.0 - held / np.maximum(live, 1), 0.0)

    def error(self, alive: np.ndarray) -> float:
        """Distance from completion over the alive nodes (task semantics)."""
        return float(self.row_errors(alive)[0])

    def row_error_breakdown(self, alive: np.ndarray) -> Dict[str, np.ndarray]:
        """Additional named per-row error figures (default: none)."""
        return {}

    def error_breakdown(self, alive: np.ndarray) -> Dict[str, float]:
        """Additional named error figures for the final report.

        Keys land in the report's ``extras`` next to ``task_error`` (and
        stream through the replication layer when recognised there).
        """
        breakdown = self.row_error_breakdown(alive)
        return {name: float(errors[0]) for name, errors in breakdown.items()}

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


class KRumorState(TaskState):
    """k-rumor all-cast: k independent sources, everyone must hold all k.

    State is a ``(reps * n, k)`` holds matrix; a message carries the
    sender's whole rumor set — a k-bit presence bitmap plus
    ``count * rumor_bits`` payload — so bit cost scales with the rumors
    actually carried.
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
        self._start(k, message_bits)
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

    @classmethod
    def batch(
        cls,
        n: int,
        reps: int,
        rng: np.random.Generator,
        *,
        message_bits: int = 256,
        source: Optional[int] = 0,
        k: int = 4,
    ) -> "KRumorState":
        """``reps`` rows, every node alive: rumor 0 starts at ``source``
        (a uniform node per row when ``None``), the other ``k - 1`` at
        distinct uniform nodes of each row."""
        check_k(k, n)
        state = cls._rows(n, reps)
        state._start(k, message_bits)
        holds = state.holds.reshape(reps, n, state.k)
        first = resolve_sources(source, reps, n, rng)
        rows = np.arange(reps, dtype=np.int64)
        holds[rows, first, 0] = True
        if state.k > 1:
            # Smallest random scores win, rumor 0's source excluded.
            scores = rng.random((reps, n))
            scores[rows, first] = np.inf
            extra = np.argpartition(scores, state.k - 2, axis=1)[:, : state.k - 1]
            holds[rows[:, None], extra, np.arange(1, state.k)[None, :]] = True
        state._snap = state.holds.copy()
        return state

    def _start(self, k: int, message_bits: int) -> None:
        self.k = int(k)
        self.rumor_bits = int(message_bits)
        self.holds = np.zeros((self.reps * self.n, self.k), dtype=bool)

    @classmethod
    def elements_per_node(cls, task_kwargs: dict) -> int:
        """The holds matrix is ``k`` wide.  A bad ``k`` weighs 1 here;
        :func:`check_k` refuses it."""
        k = task_kwargs.get("k", 4)
        return int(k) if is_integer(k) and k > 1 else 1

    def begin_round(self) -> None:
        np.copyto(self._snap, self.holds)

    def has_content(self, nodes) -> np.ndarray:
        return _fold_columns(np.logical_or, _take(self._snap, nodes))

    def payload_bits(self, nodes) -> np.ndarray:
        counts = _fold_columns(np.add, _take(self._snap, nodes), np.int64)
        return self.k + counts * self.rumor_bits

    def begin_push(self, srcs):
        return (srcs, _take(self._snap, srcs))

    def finish_push(self, token, srcs, dsts: np.ndarray) -> None:
        (rows,) = _delivered(token, srcs)
        # OR is exact in any order: one scatter per rumor.
        for j in range(self.k):
            column = self.holds[:, j]
            column[dsts[rows[:, j]]] = True

    def deliver_pull(self, receivers: np.ndarray, responders: np.ndarray) -> None:
        merged = np.take(self._snap, responders, axis=0)
        merged |= np.take(self.holds, receivers, axis=0)
        self.holds[receivers] = merged

    def completion_mask(self) -> np.ndarray:
        return _fold_columns(np.logical_and, self.holds)

    def row_errors(self, alive: np.ndarray) -> np.ndarray:
        """Missing-content fraction per row: 1 - mean fill of the alive
        positions' holds (0 for a row with none alive)."""
        live = np.count_nonzero(alive.reshape(self.reps, self.n), axis=1)
        filled = self.holds & alive[:, None]
        held = np.count_nonzero(filled.reshape(self.reps, -1), axis=1)
        return np.where(live > 0, 1.0 - held / np.maximum(live * self.k, 1), 0.0)

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
        del message_bits, source  # no rumor, no distinguished source
        values = rng.random(self.n)
        alive = net.alive
        mu = float(values[alive].mean()) if alive.any() else 0.0
        self._start(values, alive, np.array([mu]), tol, value_bits, restore_mass)

    @classmethod
    def batch(
        cls,
        n: int,
        reps: int,
        rng: np.random.Generator,
        *,
        message_bits: int = 256,
        source: Optional[int] = 0,
        tol: float = 1e-3,
        value_bits: int = PUSH_SUM_VALUE_BITS,
        restore_mass: bool = False,
    ) -> "PushSumState":
        """``reps`` rows, every node alive, from one ``(reps, n)`` value
        draw; ``restore_mass`` is moot there (no node ever revives)."""
        del message_bits, source
        values = rng.random((reps, n))
        state = cls._rows(n, reps)
        alive = np.ones(reps * n, dtype=bool)
        mu = values.mean(axis=1)
        state._start(values.ravel(), alive, mu, tol, value_bits, restore_mass)
        return state

    def _start(self, values, alive, mu, tol, value_bits, restore_mass) -> None:
        check_tol(tol)
        check_positive_int("value_bits", value_bits)
        self.tol = float(tol)
        self.value_bits = int(value_bits)
        self.restore_mass = bool(restore_mass)
        self.values = values
        self.mu = mu
        self._scale = np.maximum(np.abs(mu), 1e-12)
        self.v = np.where(alive, values, 0.0)
        self.w = alive.astype(np.float64)
        self.est = np.full(len(values), np.nan)
        self.end_round()  # initial estimates = own value
        self._est_snap = self.est.copy()
        self._prev_alive = alive.copy()
        self.mass_restored = 0
        self._pool = BufferPool()

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
        # An unmasked divide is about twice as fast as a masked one.
        np.divide(self.v, self.w, out=self.est, where=True if held.all() else held)

    def all_push(self) -> bool:
        return True

    def has_content(self, nodes) -> np.ndarray:
        return self.w[nodes] > WEIGHT_FLOOR

    def payload_bits(self, nodes) -> int:
        return 2 * self.value_bits

    def _stage(self, srcs, fraction: float):
        token = [srcs]
        for name, mass in (("v", self.v), ("w", self.w)):
            # The staged halves live in the state's pool until the next
            # stage: one batch round would otherwise free two (R, n)
            # temporaries at once, which glibc hands back to the OS.
            sent = mass[srcs]
            out = self._pool.take(name, sent.size, np.float64)
            np.multiply(sent, fraction, out=out)
            mass[srcs] -= out
            token.append(out)
        return token

    def begin_push(self, srcs):
        return self._stage(srcs, 0.5)

    def begin_extract(self, srcs):
        return self._stage(srcs, 1.0)

    def finish_push(self, token, srcs, dsts: np.ndarray) -> None:
        v_out, w_out = _delivered(token, srcs)
        np.add.at(self.v, dsts, v_out)
        np.add.at(self.w, dsts, w_out)

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
        """Each position's relative distance from its row's mean (NaN
        where it holds no estimate), as ``(reps, n)``."""
        err = np.subtract(self.est.reshape(self.reps, self.n), self.mu[:, None])
        np.abs(err, out=err)
        err /= self._scale[:, None]
        return err

    def completion_mask(self) -> np.ndarray:
        # NaN compares False: a node without an estimate is not done.
        return (self._rel_err() <= self.tol).ravel()

    def row_errors(self, alive: np.ndarray) -> np.ndarray:
        """Max relative error of the alive estimates per row (inf if any
        holds none, 0 for a row with none alive: errors are >= 0)."""
        err = self._rel_err()
        err[np.isnan(err)] = np.inf
        live = alive.reshape(self.reps, self.n)
        return err.max(axis=1, initial=0.0, where=live)

    def repaired_target(self, alive: np.ndarray) -> np.ndarray:
        """Per row, the self-consistent mean of the surviving injected mass.

        Push-sum converges to ``sum(v) / sum(w)`` over whatever mass is
        still mixing; churn (and, with ``restore_mass``, re-injection)
        moves that target away from the initial ``mu``.  Measured over
        the alive mass holders; falls back to ``mu`` for a row where no
        alive node holds mass.
        """
        mass = ((self.w > WEIGHT_FLOOR) & alive).reshape(self.reps, self.n)
        v = self.v.reshape(self.reps, self.n)
        w = self.w.reshape(self.reps, self.n)
        target = self.mu.copy()
        for r in range(self.reps):
            # Sums over the compressed holders: a masked row sum would
            # pair the additions differently.
            total_w = float(w[r][mass[r]].sum())
            if total_w > WEIGHT_FLOOR:
                target[r] = float(v[r][mass[r]].sum()) / total_w
        return target

    def row_error_breakdown(self, alive: np.ndarray) -> Dict[str, np.ndarray]:
        """The repaired error per row: max relative distance of the alive
        estimates from :meth:`repaired_target` (the biased error against
        the initial mean is :meth:`row_errors`)."""
        target = self.repaired_target(alive)
        live = alive.reshape(self.reps, self.n)
        est = self.est.reshape(self.reps, self.n)
        gap = np.abs(est - target[:, None]).max(axis=1, initial=0.0, where=live)
        repaired = gap / np.maximum(np.abs(target), 1e-12)
        unheld = (live & ~np.isfinite(est)).any(axis=1)
        return {"task_error_repaired": np.where(unheld, np.inf, repaired)}

    def cap_schedule(self) -> Tuple[str, Dict[str, object]]:
        return "push-sum", {"tol": self.tol}

    def extras(self) -> Dict[str, object]:
        out: Dict[str, object] = {"task_mu": float(self.mu[0]), "task_tol": self.tol}
        if self.restore_mass:
            out["task_restore_mass"] = True
            out["task_mass_restored"] = self.mass_restored
        return out


class ExtremeState(TaskState):
    """Min/max dissemination — the idempotent aggregate sanity case.

    Every alive node starts with a uniform ``[0, 1)`` value; merging is
    elementwise min (or max), so loss and churn cost only retransmission
    rounds, never correctness.  Completion = every alive node holds the
    global extreme of its row's *initially alive* values.
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
        del message_bits, source
        self._start(rng.random(self.n), net.alive, mode, value_bits)

    @classmethod
    def batch(
        cls,
        n: int,
        reps: int,
        rng: np.random.Generator,
        *,
        message_bits: int = 256,
        source: Optional[int] = 0,
        mode: str = "min",
        value_bits: int = PUSH_SUM_VALUE_BITS,
    ) -> "ExtremeState":
        """``reps`` rows, every node alive, from one ``(reps, n)`` value
        draw."""
        del message_bits, source
        values = rng.random((reps, n)).ravel()
        state = cls._rows(n, reps)
        state._start(values, np.ones(reps * n, dtype=bool), mode, value_bits)
        return state

    def _start(self, values, alive, mode, value_bits) -> None:
        check_mode(mode)
        check_positive_int("value_bits", value_bits)
        self.mode = mode
        self.value_bits = int(value_bits)
        self._merge = np.minimum if mode == "min" else np.maximum
        self._merge_at = np.minimum.at if mode == "min" else np.maximum.at
        self.values = values
        idle = np.inf if mode == "min" else -np.inf
        self.best = np.where(alive, values, idle)
        # The extreme of each row's alive values (idle for a row with none).
        reduce = np.min if mode == "min" else np.max
        rows = (self.reps, self.n)
        self.target = reduce(
            values.reshape(rows), axis=1, initial=idle, where=alive.reshape(rows)
        )
        self._snap = self.best.copy()

    def begin_round(self) -> None:
        np.copyto(self._snap, self.best)

    def has_content(self, nodes) -> np.ndarray:
        return np.isfinite(self._snap[nodes])

    def payload_bits(self, nodes) -> int:
        return self.value_bits

    def all_push(self) -> bool:
        return True

    def begin_push(self, srcs):
        return (srcs, self._snap[srcs])

    def finish_push(self, token, srcs, dsts: np.ndarray) -> None:
        (staged,) = _delivered(token, srcs)
        self._merge_at(self.best, dsts, staged)

    def deliver_pull(self, receivers: np.ndarray, responders: np.ndarray) -> None:
        self.best[receivers] = self._merge(
            self.best[receivers], self._snap[responders]
        )

    def completion_mask(self) -> np.ndarray:
        best = self.best.reshape(self.reps, self.n)
        return (best == self.target[:, None]).ravel()

    def extras(self) -> Dict[str, object]:
        return {"task_mode": self.mode, "task_target": float(self.target[0])}
