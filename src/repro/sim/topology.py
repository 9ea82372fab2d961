"""First-class contact topologies: who *can* phone whom.

The paper's random phone call model runs on the complete graph — every
node can dial every other node, and :meth:`repro.sim.network.Network.
random_targets` draws targets uniformly from all of them.  This module
makes that choice explicit and swappable: a **topology** is a frozen,
picklable spec (:class:`CompleteGraph`, :class:`Ring`, :class:`Torus2D`,
:class:`RandomRegular`, :class:`ErdosRenyiGnp`) that a
:class:`~repro.sim.network.Network` binds into a :class:`ContactGraph` —
a CSR adjacency structure with a vectorised, liveness-aware
:meth:`ContactGraph.sample_contacts`.

Semantics
---------
* **Random contacts** are drawn uniformly from the caller's *alive*
  neighbors.  Liveness awareness is a per-epoch re-mask of the CSR
  arrays: the alive-restricted neighbor lists are rebuilt lazily
  whenever :attr:`Network.liveness_epoch` moves (a Section 8 pre-run
  failure pattern, or mid-run churn from an
  :class:`~repro.sim.dynamics.AdversitySchedule`), so a node never
  wastes its one call per round on a neighbor it can observe is gone.
  A caller whose whole neighborhood is dead gets the sentinel ``-1``
  ("nobody to call"); the engine treats such contacts as charged but
  undeliverable, the cost of being partitioned.
* **Direct addressing** is a :class:`~repro.sim.network.Network`-level
  mode, not a graph property: with ``direct_addressing="global"`` (the
  paper's model) a learned address is routable regardless of the
  contact graph; with ``"topology"`` a direct call only connects along
  an edge — :meth:`ContactGraph.reachable` is the engine's membership
  oracle.
* The **complete graph never materialises a CSR** (it would be
  ``O(n^2)``): :class:`CompleteGraph` binds to ``None`` and
  ``Network.random_targets`` keeps its historical single-draw path, so
  the default topology is bit-identical to the pre-topology engine
  (pinned by the fingerprint corpus) and pays no per-edge memory.

Random graphs (:class:`RandomRegular`, :class:`ErdosRenyiGnp`) are
materialised from the network's own seed stream at bind time, so every
replication seed gets its own independently sampled graph and results
stay bit-identical across the broadcast / reset-replication / parallel
sweep execution shapes.

Delay models
------------
Every topology spec optionally carries a ``delay=`` annotation — a
frozen :class:`DelayModel` giving each contact a latency in simulated
time units.  Delay models are *timing metadata*: the synchronous round
engine ignores them entirely, and only the event tier
(:mod:`repro.sim.schedule`) consults them, so annotating a topology
never perturbs round-counted results.  Scalar models
(:class:`ConstantDelay`, :class:`UniformJitterDelay`,
:class:`NodeSlowdownDelay`) work on any topology including the
complete graph — no CSR is forced.  Per-edge models
(:class:`EdgeWeightedDelay`, :class:`RateLimitedEdgeDelay`) attach
weights to the CSR edges and therefore require a materialised
:class:`ContactGraph`.  Models bind per run seed from the dedicated
``"delay"`` seed stream, so delay draws never touch algorithm coins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

import numpy as np

from repro.catalogue import Catalogue


@dataclass(frozen=True)
class Topology:
    """Base class of the frozen topology specs.

    A spec is pure configuration — picklable, hashable, safe inside a
    :class:`~repro.analysis.runner.RunSpec` — and :meth:`bind` turns it
    into per-``n`` adjacency state.  ``complete`` marks the one spec
    whose bind is the no-CSR fast path.  ``deterministic`` marks specs
    whose :meth:`bind` ignores (and must not consume) the stream — the
    replication layer then keeps the bound graph across
    :meth:`~repro.sim.network.Network.reset` seeds instead of
    rebuilding an identical CSR per replication.
    """

    name: ClassVar[str] = "topology"
    complete: ClassVar[bool] = False
    deterministic: ClassVar[bool] = False

    #: Class-level fallback so third-party specs that predate the delay
    #: field still answer ``spec.delay``; every shipped spec overrides
    #: this with a real (frozen, picklable) dataclass field.
    delay = None

    def bind(self, n: int, rng: np.random.Generator) -> "Optional[ContactGraph]":
        """Materialise the adjacency for an ``n``-node network.

        ``rng`` is the network's construction stream (uids are assigned
        from it first); deterministic graphs must not consume it, so
        the complete-graph stream — and therefore every pre-topology
        result — is untouched.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable form for reports and catalogues."""
        return self._decorate(self.name)

    def diameter_hint(self, n: int) -> Optional[int]:
        """Graph-distance horizon of an ``n``-node bind, in hops.

        An upper-bound estimate of the diameter (exact for the
        deterministic topologies, w.h.p. for the random ones) — the
        natural unit for round budgets: information needs at least one
        round per hop, so the default cap of a spreading process grows
        with it (:func:`repro.sim.caps.round_cap` reads it from the bound
        graph).  ``None`` means the spec offers no estimate (third-party
        topologies predating this hook); their runs keep the base cap.
        """
        return None

    def _decorate(self, base: str) -> str:
        """Append the delay annotation, when one is attached."""
        if self.delay is not None:
            return f"{base}+{self.delay.describe()}"
        return base

    def _contact_graph(self, n: int, u: np.ndarray, v: np.ndarray) -> "ContactGraph":
        """Bind an undirected edge list, with this spec's hint for ``n``."""
        graph = ContactGraph(self.describe(), n, *_csr_from_edges(n, u, v))
        graph.diameter_hint = self.diameter_hint(n)
        return graph


class ContactGraph:
    """A bound contact topology: CSR adjacency + liveness-aware sampling.

    ``indptr``/``indices`` are the usual CSR arrays (neighbor lists
    sorted ascending, no self-loops, symmetric).  ``sample_contacts``
    draws one uniform *alive* neighbor per caller; the alive-restricted
    CSR is cached per liveness epoch, so static executions re-mask once
    and churn-heavy ones re-mask exactly when the epoch moves.
    """

    #: The spec's :meth:`Topology.diameter_hint` for this ``n``, set by
    #: the bind (``None``: no hint); :func:`repro.sim.caps.round_cap` reads it.
    diameter_hint: Optional[int] = None

    def __init__(self, name: str, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.name = name
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if self.indptr.shape != (self.n + 1,):
            raise ValueError("indptr must have shape (n + 1,)")
        if self.indices.ndim != 1:
            raise ValueError("indices must be a 1-D array")
        self.degrees = np.diff(self.indptr)
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError(
                f"indptr must run from 0 to len(indices)={len(self.indices)}, "
                f"got {self.indptr[0]}..{self.indptr[-1]}"
            )
        if (self.degrees < 0).any():
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and not (
            0 <= self.indices.min() and self.indices.max() < self.n
        ):
            raise ValueError(f"indices must lie in [0, n={self.n})")
        #: The common degree of a regular graph (``None`` otherwise, and
        #: for a graph without edges): every structural draw then hits a
        #: neighbor, and the degree is a scalar draw bound.
        d0 = int(self.degrees[0]) if self.n else 0
        self._regular_degree = d0 if d0 > 0 and (self.degrees == d0).all() else None
        #: Every node has a neighbor, so a structural draw (``alive=None``)
        #: never returns the ``-1`` "nobody to call" sentinel.
        self.no_void = bool((self.degrees > 0).all())
        self._edge_keys_cache: Optional[np.ndarray] = None
        self._alive_epoch: Optional[int] = None
        self._alive_indptr = self.indptr
        self._alive_indices = self.indices
        self._alive_counts = self.degrees

    # -- structure ------------------------------------------------------

    @property
    def _edge_keys(self) -> np.ndarray:
        """Sorted flat edge keys ``src * n + dst`` — the membership
        oracle behind :meth:`reachable`.  Built lazily on first use:
        only ``direct_addressing="topology"`` runs ever consult it, so
        the default global-addressing path never pays the O(E) array.
        """
        if self._edge_keys_cache is None:
            self._edge_keys_cache = (
                np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
                * self.n
                + self.indices
            )
        return self._edge_keys_cache

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def neighbors(self, node: int) -> np.ndarray:
        """The (sorted) neighbor list of ``node``."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def reachable(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Per-pair mask: is ``(srcs[i], dsts[i])`` an edge?

        Out-of-range destinations (the ``-1`` nobody-to-call sentinel,
        stale direct addresses under dynamics) are unreachable.  This is
        the membership oracle the engine consults under
        ``direct_addressing="topology"``.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        valid = (dsts >= 0) & (dsts < self.n)
        keys = srcs * self.n + np.where(valid, dsts, 0)
        pos = np.searchsorted(self._edge_keys, keys)
        pos = np.minimum(pos, len(self._edge_keys) - 1) if len(self._edge_keys) else pos
        if len(self._edge_keys) == 0:
            return np.zeros(len(dsts), dtype=bool)
        return valid & (self._edge_keys[pos] == keys)

    # -- liveness-aware sampling ---------------------------------------

    def _remask(self, alive: np.ndarray, epoch: Optional[int]) -> None:
        """Rebuild the alive-restricted CSR (cached per liveness epoch)."""
        if epoch is not None and epoch == self._alive_epoch:
            return
        keep = alive[self.indices]
        if keep.all():
            self._alive_indptr = self.indptr
            self._alive_indices = self.indices
            self._alive_counts = self.degrees
        else:
            running = np.concatenate(([0], np.cumsum(keep, dtype=np.int64)))
            counts = running[self.indptr[1:]] - running[self.indptr[:-1]]
            self._alive_indptr = np.concatenate(
                ([0], np.cumsum(counts, dtype=np.int64))
            )
            self._alive_indices = self.indices[keep]
            self._alive_counts = counts
        self._alive_epoch = epoch

    def alive_degree(self, callers: np.ndarray, alive: np.ndarray, epoch: Optional[int] = None) -> np.ndarray:
        """Number of alive neighbors per caller (epoch-cached)."""
        self._remask(alive, epoch)
        return self._alive_counts[np.asarray(callers, dtype=np.int64)]

    def sample_contacts(
        self,
        callers: np.ndarray,
        rng: np.random.Generator,
        *,
        alive: Optional[np.ndarray] = None,
        epoch: Optional[int] = None,
    ) -> np.ndarray:
        """One uniform random alive neighbor per caller (vectorised).

        Returns an int64 array parallel to ``callers``; entries are
        ``-1`` for callers with no alive neighbor.  With ``alive=None``
        every node counts as alive (the structural draw).  This is the
        one-row case of :meth:`sample_contacts_batch`: the same single
        ``rng.integers`` call, the same targets and generator state.
        """
        return self.sample_contacts_batch(1, callers, rng, alive=alive, epoch=epoch)[0]

    def sample_contacts_batch(
        self,
        reps: int,
        callers: np.ndarray,
        rng: np.random.Generator,
        *,
        alive: Optional[np.ndarray] = None,
        epoch: Optional[int] = None,
    ) -> np.ndarray:
        """``(reps, len(callers))`` independent alive-neighbor draws.

        The one contact sampler on a bound graph: the ``(R, n)`` vector
        executors call it directly and :meth:`sample_contacts` is its
        one-row case.  Each row is one replication's per-caller draw:
        uniform over the alive neighborhood, never the caller itself,
        ``-1`` exactly when a caller has no alive neighbor.

        ``alive`` is ``None`` (structural draw) or a shared ``(n,)``
        mask, remasked once through the epoch cache.

        When every edge is live (``alive=None``, or a shared mask that
        keeps every edge) on a regular graph, the draw skips the ``-1``
        bookkeeping and is bounded by the scalar degree — numpy's bounded
        draw yields the same values and generator state for a scalar
        bound as for an all-equal array.
        """
        callers = np.asarray(callers, dtype=np.int64)
        C = len(callers)
        if alive is None:
            indptr, indices, degrees = self.indptr, self.indices, self.degrees
        else:
            self._remask(np.asarray(alive, dtype=bool), epoch)
            indptr, indices = self._alive_indptr, self._alive_indices
            degrees = self._alive_counts
        if indices is self.indices and self._regular_degree is not None:
            pos = rng.integers(0, self._regular_degree, size=(reps, C), dtype=np.int64)
            pos += indptr[callers]
            return indices[pos]
        counts = degrees[callers]
        draws = rng.integers(
            0, np.maximum(counts, 1)[None, :], size=(reps, C), dtype=np.int64
        )
        targets = np.full((reps, C), -1, dtype=np.int64)
        has = counts > 0
        if has.any():
            targets[:, has] = indices[indptr[callers[has]][None, :] + draws[:, has]]
        return targets


def _csr_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR arrays from an undirected edge list (both ends).

    Entries sort by the combined key ``src * n + dst`` — collision-free
    and below ``n**2`` — so one in-place sort orders them by source,
    then neighbor, and ``key % n`` recovers the neighbor in place.
    """
    m = len(u)
    keys = np.concatenate([u, v]).astype(np.int64, copy=False)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    keys *= n
    keys[:m] += v
    keys[m:] += u
    keys.sort()
    keys %= n
    return indptr, keys


# ---------------------------------------------------------------------------
# Delay models: per-contact latency annotations for the event tier.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelayModel:
    """Base class of the frozen per-contact delay specs.

    A delay model is pure configuration (picklable, hashable — safe on
    a frozen :class:`Topology` or inside a ``RunSpec``); :meth:`bind_batch`
    turns it into a :class:`BatchBoundDelay` oracle for ``reps`` stacked
    networks, drawing any persistent randomness (straggler sets,
    per-edge weights) from each replication's dedicated ``"delay"`` seed
    stream.  Both event tiers bind through it: the sequential tier is
    the one-row case, :meth:`bind`.  ``requires_graph`` marks the
    per-edge models that need a materialised CSR — the complete graph
    keeps the scalar models, so no CSR is ever forced.
    """

    name: ClassVar[str] = "delay"
    requires_graph: ClassVar[bool] = False

    def bind(
        self, n: int, graph: "Optional[ContactGraph]", rng: np.random.Generator
    ) -> "BatchBoundDelay":
        """The one-row oracle for a single ``n``-node network.

        ``rng`` is the run's ``"delay"`` stream; it supplies both the
        bind-time fabric and the per-message jitter, in that order.
        """
        return self.bind_batch(n, 1, graph, [rng], rng)

    def bind_batch(
        self,
        n: int,
        reps: int,
        graph: "Optional[ContactGraph]",
        rep_rngs: "list[np.random.Generator]",
        rng: np.random.Generator,
    ) -> "BatchBoundDelay":
        """Materialise the batched oracle for ``reps`` stacked networks.

        ``rep_rngs[i]`` is replication ``i``'s dedicated ``"delay"``
        stream — bind-time randomness (straggler sets, edge weights)
        must come from it so each row's delay fabric is a function of
        that replication's seed alone.  ``rng`` is the shared
        per-message stream for draws that are only required to be
        identically distributed (jitter), mirroring how the vector
        executors share one algorithm-coins stream per chunk.
        """
        raise NotImplementedError(
            f"delay model '{self.name}' implements no bind_batch"
        )

    def describe(self) -> str:
        """Short human-readable form for reports and catalogues."""
        return self.name

    def _require_graph(self, graph: "Optional[ContactGraph]") -> "ContactGraph":
        if graph is None:
            raise ValueError(
                f"delay model '{self.name}' attaches weights to CSR edges "
                f"and needs a materialised contact graph; the complete "
                f"graph keeps a scalar model (constant / jitter / "
                f"straggler) so no CSR is forced"
            )
        return graph


class BatchBoundDelay:
    """A bound delay oracle: per-contact latencies for ``reps`` stacked
    networks at once.

    Consumed by :class:`~repro.sim.schedule.BatchClockOverlay`, which
    both event tiers run on (the sequential tier binds one row).
    ``constant`` is non-``None`` when every contact takes exactly that
    many time units — the scalar fast path.  Otherwise :meth:`delays`
    returns a float64 array parallel to the contact arrays, where
    ``rows[i]`` names the replication row contact ``i`` belongs to (so
    per-rep fabric — straggler sets, edge weights — indexes its own
    row); per-message jitter draws come from the caller-supplied delay
    stream, so algorithm coins stay untouched.
    """

    #: Set by :func:`repro.sim.schedule.make_batch_overlay` and
    #: :meth:`repro.sim.schedule.EventSchedulerSpec.bind` when the
    #: topology can never produce a ``-1`` "nobody to call" sentinel
    #: (the complete graph; on the vector tier also a graph with no
    #: isolated node) — samplers then skip validity scans.
    no_void = False

    def __init__(self, constant: Optional[float] = None) -> None:
        self.constant = None if constant is None else float(constant)

    @property
    def zero(self) -> bool:
        """True when every contact is instantaneous (zero latency)."""
        return self.constant == 0.0

    def delays(
        self,
        rows: Optional[np.ndarray],
        srcs: np.ndarray,
        dsts: np.ndarray,
        rng: np.random.Generator,
    ) -> "np.ndarray | float":
        """Per-contact delays; ``rows=None`` puts every contact in row 0."""
        if self.constant is not None:
            return self.constant
        raise NotImplementedError

    def sample_full(
        self, rows: np.ndarray, targets: np.ndarray, rng: np.random.Generator
    ) -> "np.ndarray | float":
        """Delays for a full-participation round, ``(A, n)``-shaped.

        Node ``j`` of rep row ``rows[i]`` dials ``targets[i, j]``
        (``-1`` = nobody).  Same distribution as :meth:`delays`,
        but shaped for the overlay's two-dimensional hot path; the base
        implementation expands to the sparse form, subclasses override
        with row-gather formulations.
        """
        if self.constant is not None:
            return self.constant
        rows = np.asarray(rows, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        a, n = targets.shape
        out = self.delays(
            np.repeat(rows, n),
            np.tile(np.arange(n, dtype=np.int64), a),
            targets.ravel(),
            rng,
        )
        return np.asarray(out, dtype=np.float64).reshape(a, n)

    def complete_full(
        self,
        clock_rows: np.ndarray,
        rows: np.ndarray,
        targets: np.ndarray,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> None:
        """Completion times for a full round: fills ``out`` with
        ``clock_rows + delays``.

        The overlay's fused hot path.  ``out`` is an ``(A, n)`` float64
        buffer the overlay owns: a view of its per-chunk workspace,
        valid until the next round, and never the clock matrix (which
        ``clock_rows`` may be a view of; it is never written here).
        Every element of ``out`` is written.  Draws exactly the same
        stream as :meth:`sample_full`; subclasses override only to skip
        the intermediate delay matrix.
        """
        np.add(clock_rows, self.sample_full(rows, targets, rng), out=out)


class _BatchJitterBound(BatchBoundDelay):
    def __init__(self, low: float, high: float) -> None:
        super().__init__(constant=low if low == high else None)
        self.low, self.high = low, high

    def delays(self, rows, srcs, dsts, rng):
        if self.constant is not None:
            return self.constant
        return rng.uniform(self.low, self.high, size=len(np.asarray(srcs)))

    def sample_full(self, rows, targets, rng):
        if self.constant is not None:
            return self.constant
        return rng.uniform(self.low, self.high, size=np.asarray(targets).shape)


class _BatchSlowdownBound(BatchBoundDelay):
    def __init__(self, slow: np.ndarray, base: float, factor: float) -> None:
        super().__init__()
        self._slow = slow  # (reps, n) bool
        self._base = base
        self._slowed = base * factor

    def delays(self, rows, srcs, dsts, rng):
        # 1-D takes on the flattened mask: a 2-D ``slow[rows, srcs]``
        # gather costs about 4x as much at sequential contact counts.
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        n = self._slow.shape[1]
        flat = self._slow.ravel()
        # The complete graph never dials the void: no validity scan.
        valid = None if self.no_void else (dsts >= 0) & (dsts < n)
        dst_keys = dsts if valid is None else np.where(valid, dsts, 0)
        if rows is not None:
            offsets = np.asarray(rows, dtype=np.int64) * n
            srcs = srcs + offsets
            dst_keys = dst_keys + offsets
        hit = flat.take(srcs)
        slowed_dst = flat.take(dst_keys)
        hit |= slowed_dst if valid is None else valid & slowed_dst
        return np.where(hit, self._slowed, self._base)

    def _hit_full(self, rows, targets):
        # Sources are every node of each row in order, so the src-side
        # gather is a plain row gather; only the target side needs a
        # per-element lookup — a flat ``take`` against the full matrix
        # (row offsets from the global rep rows), which beats
        # ``take_along_axis`` about 2x at chunk sizes.
        targets = np.asarray(targets)
        rows = np.asarray(rows, dtype=np.int64)
        reps, n = self._slow.shape
        if len(rows) == reps and (
            reps == 0 or (rows[0] == 0 and rows[-1] == reps - 1)
        ):
            slow_rows = self._slow  # sorted-unique full count: a view
        else:
            slow_rows = self._slow[rows]
        kd = (
            targets.dtype
            if reps * n <= np.iinfo(targets.dtype).max
            else np.int64
        )
        offsets = (rows * n).astype(kd, copy=False)[:, None]
        flat = self._slow.ravel()
        if self.no_void or targets.min() >= 0:
            t_slow = flat.take(targets + offsets)
            return np.logical_or(t_slow, slow_rows, out=t_slow)
        valid = targets >= 0
        t_slow = flat.take(np.where(valid, targets, 0) + offsets)
        t_slow &= valid
        return np.logical_or(t_slow, slow_rows, out=t_slow)

    def sample_full(self, rows, targets, rng):
        return np.where(self._hit_full(rows, targets), self._slowed, self._base)

    def complete_full(self, clock_rows, rows, targets, rng, out):
        hit = self._hit_full(rows, targets)
        np.add(clock_rows, self._base, out=out)
        np.add(out, self._slowed - self._base, out=out, where=hit)


class _BatchEdgeBound(BatchBoundDelay):
    """Per-rep undirected-edge weights over one shared CSR.

    ``weights`` is ``(reps, m)`` over the undirected edge ids; the
    shared ``inverse`` map (directed CSR entry -> undirected id) and the
    graph's sorted edge keys resolve each contact to its edge.
    Off-graph contacts (the ``-1`` void sentinel, or a global-addressed
    direct call to a non-neighbor) fall back to ``default`` — they are
    routed outside the weighted fabric.
    """

    def __init__(
        self,
        graph: ContactGraph,
        weights: np.ndarray,
        inverse: np.ndarray,
        default: float,
    ) -> None:
        super().__init__()
        self._graph = graph
        self._weights = weights  # (reps, m) undirected-edge weights
        self._inverse = inverse  # directed CSR entry -> undirected id
        self._default = float(default)

    def delays(self, rows, srcs, dsts, rng):
        g = self._graph
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        valid = (dsts >= 0) & (dsts < g.n)
        keys = srcs * g.n + np.where(valid, dsts, 0)
        edge_keys = g._edge_keys
        out = np.full(len(keys), self._default, dtype=np.float64)
        if len(edge_keys):
            pos = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)
            hit = valid & (edge_keys[pos] == keys)
            row = 0 if rows is None else np.asarray(rows, dtype=np.int64)[hit]
            out[hit] = self._weights[row, self._inverse[pos[hit]]]
        return out


@dataclass(frozen=True)
class ConstantDelay(DelayModel):
    """Every contact takes exactly ``delay`` time units.

    The unit default makes event time coincide with the round clock
    under full participation; ``ConstantDelay(0.0)`` is the zero-latency
    model whose event runs reproduce the round engine's timing-free
    semantics exactly.
    """

    name: ClassVar[str] = "constant"
    delay: float = 1.0

    def __post_init__(self) -> None:
        if not self.delay >= 0.0:
            raise ValueError(f"constant delay must be >= 0, got {self.delay}")

    def bind_batch(self, n, reps, graph, rep_rngs, rng) -> BatchBoundDelay:
        return BatchBoundDelay(constant=self.delay)

    def describe(self) -> str:
        return f"constant({self.delay:g})"


@dataclass(frozen=True)
class UniformJitterDelay(DelayModel):
    """Per-message latency drawn uniformly from ``[low, high]``.

    The gossipy-style round jitter: every contact independently takes
    a fresh draw, on any topology (no CSR needed).
    """

    name: ClassVar[str] = "jitter"
    low: float = 0.5
    high: float = 1.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.low <= self.high:
            raise ValueError(
                f"jitter bounds need 0 <= low <= high, got "
                f"low={self.low}, high={self.high}"
            )

    def bind_batch(self, n, reps, graph, rep_rngs, rng) -> BatchBoundDelay:
        return _BatchJitterBound(self.low, self.high)

    def describe(self) -> str:
        return f"jitter({self.low:g},{self.high:g})"


@dataclass(frozen=True)
class NodeSlowdownDelay(DelayModel):
    """A straggler tail: a random ``fraction`` of nodes is ``factor``×
    slower; a contact touching a slow endpoint takes ``base * factor``
    time units, everything else ``base``.

    The slow set is drawn once at bind from the ``"delay"`` stream (at
    least one node is always slow, so tiny-n runs still exhibit a
    tail).  Works on any topology, complete graph included.
    """

    name: ClassVar[str] = "straggler"
    base: float = 1.0
    fraction: float = 0.02
    factor: float = 10.0

    def __post_init__(self) -> None:
        if not self.base >= 0.0:
            raise ValueError(f"straggler base must be >= 0, got {self.base}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"straggler fraction must be in (0, 1], got {self.fraction}"
            )
        if not self.factor >= 1.0:
            raise ValueError(f"straggler factor must be >= 1, got {self.factor}")

    # In the class dict so profilers can wrap this model's one-row bind.
    bind = DelayModel.bind

    def bind_batch(self, n, reps, graph, rep_rngs, rng) -> BatchBoundDelay:
        slow = np.zeros((reps, n), dtype=bool)
        for i, rep_rng in enumerate(rep_rngs):
            row = rep_rng.random(n) < self.fraction
            if not row.any():
                row[int(rep_rng.integers(0, n))] = True
            slow[i] = row
        return _BatchSlowdownBound(slow, self.base, self.factor)

    def describe(self) -> str:
        return (
            f"straggler(fraction={self.fraction:g},factor={self.factor:g})"
            if self.base == 1.0
            else f"straggler(base={self.base:g},fraction={self.fraction:g},"
            f"factor={self.factor:g})"
        )


def _undirected_edge_index(graph: ContactGraph) -> Tuple[int, np.ndarray]:
    """(#undirected edges, per-directed-entry undirected edge id) — so a
    weight drawn once per undirected edge lands on both directions."""
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
    lo = np.minimum(src, graph.indices)
    hi = np.maximum(src, graph.indices)
    uniq, inverse = np.unique(lo * graph.n + hi, return_inverse=True)
    return len(uniq), inverse


@dataclass(frozen=True)
class EdgeWeightedDelay(DelayModel):
    """Skewed WAN-style latencies: each undirected CSR edge gets an
    independent lognormal weight ``scale * exp(sigma * N(0, 1))``, the
    same in both directions.  Requires a materialised contact graph.
    """

    name: ClassVar[str] = "wan"
    requires_graph: ClassVar[bool] = True
    scale: float = 1.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.scale > 0.0:
            raise ValueError(f"wan scale must be > 0, got {self.scale}")
        if not self.sigma >= 0.0:
            raise ValueError(f"wan sigma must be >= 0, got {self.sigma}")

    def bind_batch(self, n, reps, graph, rep_rngs, rng) -> BatchBoundDelay:
        graph = self._require_graph(graph)
        m, inverse = _undirected_edge_index(graph)
        weights = np.empty((reps, m), dtype=np.float64)
        for i, rep_rng in enumerate(rep_rngs):
            weights[i] = self.scale * rep_rng.lognormal(0.0, self.sigma, size=m)
        return _BatchEdgeBound(graph, weights, inverse, default=self.scale)

    def describe(self) -> str:
        return f"wan(scale={self.scale:g},sigma={self.sigma:g})"


@dataclass(frozen=True)
class RateLimitedEdgeDelay(DelayModel):
    """A random ``fraction`` of the undirected CSR edges is rate-limited
    to ``factor``× the base latency (both directions); everything else
    takes ``base``.  Requires a materialised contact graph.
    """

    name: ClassVar[str] = "rate-limited"
    requires_graph: ClassVar[bool] = True
    base: float = 1.0
    fraction: float = 0.05
    factor: float = 20.0

    def __post_init__(self) -> None:
        if not self.base >= 0.0:
            raise ValueError(f"rate-limited base must be >= 0, got {self.base}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"rate-limited fraction must be in (0, 1], got {self.fraction}"
            )
        if not self.factor >= 1.0:
            raise ValueError(
                f"rate-limited factor must be >= 1, got {self.factor}"
            )

    def bind_batch(self, n, reps, graph, rep_rngs, rng) -> BatchBoundDelay:
        graph = self._require_graph(graph)
        m, inverse = _undirected_edge_index(graph)
        weights = np.empty((reps, m), dtype=np.float64)
        for i, rep_rng in enumerate(rep_rngs):
            limited = rep_rng.random(m) < self.fraction
            weights[i] = np.where(limited, self.base * self.factor, self.base)
        return _BatchEdgeBound(graph, weights, inverse, default=self.base)

    def describe(self) -> str:
        return (
            f"rate-limited(fraction={self.fraction:g},factor={self.factor:g})"
        )


#: Delay models constructible by name (the CLI's ``--delay NAME[:ARGS]``
#: and the scenario catalogue go through this table).
DELAY_MODELS = Catalogue("delay model", {
    "constant": ConstantDelay,
    "jitter": UniformJitterDelay,
    "straggler": NodeSlowdownDelay,
    "wan": EdgeWeightedDelay,
    "rate-limited": RateLimitedEdgeDelay,
})


@dataclass(frozen=True)
class CompleteGraph(Topology):
    """The paper's setting: everyone can phone everyone.

    Binds to ``None`` — no CSR is ever built, and the network keeps its
    historical uniform-draw path, bit-identical to the pre-topology
    engine.
    """

    name: ClassVar[str] = "complete"
    complete: ClassVar[bool] = True
    deterministic: ClassVar[bool] = True
    delay: Optional[DelayModel] = None

    def bind(self, n: int, rng: np.random.Generator) -> None:
        return None

    def diameter_hint(self, n: int) -> int:
        # Hop distance is 1, but the meaningful horizon for gossip on
        # the clique is the O(log n) doubling time of the informed set.
        return max(1, math.ceil(math.log2(max(n, 2))))


@dataclass(frozen=True)
class Ring(Topology):
    """A ring with window ``k``: node ``i`` sees ``i ± 1 .. i ± k``.

    The slowest classical gossip topology — broadcast needs
    ``Theta(n / k)`` rounds — and therefore the far end of the
    complete → expander → ring degree spectrum the E16 bench walks.
    """

    name: ClassVar[str] = "ring"
    deterministic: ClassVar[bool] = True
    k: int = 1
    delay: Optional[DelayModel] = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"ring window k must be >= 1, got {self.k}")

    def bind(self, n: int, rng: np.random.Generator) -> ContactGraph:
        if n <= 2 * self.k:
            raise ValueError(
                f"ring window k={self.k} needs n > 2k nodes, got n={n}"
            )
        nodes = np.arange(n, dtype=np.int64)
        offsets = np.arange(1, self.k + 1, dtype=np.int64)
        u = np.repeat(nodes, self.k)
        v = (u + np.tile(offsets, n)) % n
        return self._contact_graph(n, u, v)

    def diameter_hint(self, n: int) -> int:
        # Antipodal nodes are n/2 apart and each hop covers <= k.
        return max(1, math.ceil(n / (2 * self.k)))

    def describe(self) -> str:
        return self._decorate(f"ring(k={self.k})")


@dataclass(frozen=True)
class Torus2D(Topology):
    """A 2D torus (wrap-around grid), 4 neighbors per node.

    ``n`` is factored into the most-square ``rows x cols`` grid (the
    largest divisor pair); a prime ``n`` degenerates to a ``1 x n``
    ring, which :meth:`bind` rejects to keep the name honest.
    """

    name: ClassVar[str] = "torus"
    deterministic: ClassVar[bool] = True
    delay: Optional[DelayModel] = None

    @staticmethod
    def dims(n: int) -> Tuple[int, int]:
        """The most-square ``(rows, cols)`` factorisation of ``n``."""
        rows = int(math.isqrt(n))
        while rows > 1 and n % rows:
            rows -= 1
        return rows, n // rows

    def bind(self, n: int, rng: np.random.Generator) -> ContactGraph:
        rows, cols = self.dims(n)
        if rows < 3 or cols < 3:
            raise ValueError(
                f"torus needs a rows x cols factorisation with both sides "
                f">= 3; n={n} factors as {rows} x {cols}"
            )
        nodes = np.arange(n, dtype=np.int64)
        r, c = nodes // cols, nodes % cols
        right = r * cols + (c + 1) % cols
        down = ((r + 1) % rows) * cols + c
        u = np.concatenate([nodes, nodes])
        v = np.concatenate([right, down])
        return self._contact_graph(n, u, v)

    def diameter_hint(self, n: int) -> int:
        rows, cols = self.dims(n)
        return max(1, rows // 2 + cols // 2)

    def describe(self) -> str:
        return self._decorate("torus")


@dataclass(frozen=True)
class RandomRegular(Topology):
    """A random ``d``-regular graph (configuration model with repair).

    Half-edge stubs are paired uniformly; self-loops and duplicate
    edges are re-shuffled (together with a matching number of good
    pairs, so repair cannot stall) until the graph is simple.  For
    ``d >= 3`` the result is an expander w.h.p. — the sparse topology
    on which gossip still spreads in ``O(log n)`` rounds.
    """

    name: ClassVar[str] = "random-regular"
    d: int = 8
    delay: Optional[DelayModel] = None
    #: Repair sweeps before giving up and dropping the remaining bad
    #: pairs (reached only at adversarially tiny n; each sweep fixes
    #: the vast majority of collisions).
    max_repair_sweeps: ClassVar[int] = 200

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"degree d must be >= 1, got {self.d}")

    def bind(self, n: int, rng: np.random.Generator) -> ContactGraph:
        if self.d >= n:
            raise ValueError(f"degree d={self.d} needs n > d nodes, got n={n}")
        if (n * self.d) % 2:
            raise ValueError(
                f"random-regular needs n * d even, got n={n}, d={self.d}"
            )
        stubs = np.repeat(np.arange(n, dtype=np.int64), self.d)
        rng.shuffle(stubs)
        u, v = stubs[0::2], stubs[1::2]
        for _ in range(self.max_repair_sweeps):
            bad = self._bad_pairs(n, u, v)
            if not bad.any():
                break
            bad_idx = np.flatnonzero(bad)
            good_idx = np.flatnonzero(~bad)
            take = min(len(good_idx), len(bad_idx))
            mix = (
                rng.choice(good_idx, size=take, replace=False)
                if take
                else np.empty(0, dtype=np.int64)
            )
            sel = np.concatenate([bad_idx, mix])
            positions = np.concatenate([2 * sel, 2 * sel + 1])
            pool = stubs[positions]
            rng.shuffle(pool)
            stubs[positions] = pool  # u, v are views: they see the repair
        else:
            # Out of sweeps: drop the pairs that are still bad.
            keep = ~self._bad_pairs(n, u, v)
            u, v = u[keep], v[keep]
        return self._contact_graph(n, u, v)

    @staticmethod
    def _bad_pairs(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Mask of pairs that are self-loops or repeat an earlier pair.

        A plain sort finds the few duplicated edge keys; only the pairs
        carrying one of them are then ranked by position, so every
        occurrence after the first is marked.
        """
        bad = u == v
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        s = np.sort(keys)
        dup_keys = s[1:][s[1:] == s[:-1]]
        if len(dup_keys):
            hits = np.flatnonzero(np.isin(keys, dup_keys))
            order = np.argsort(keys[hits], kind="stable")
            hit_keys = keys[hits[order]]
            bad[hits[order[1:][hit_keys[1:] == hit_keys[:-1]]]] = True
        return bad

    def diameter_hint(self, n: int) -> int:
        if self.d <= 2:
            # Degenerate: a union of paths/cycles, ring-like distances.
            return max(1, n // 2)
        # Random d-regular diameter ~ log_{d-1} n w.h.p.; +1 slack for
        # the second-order term.
        return max(1, math.ceil(math.log(max(n, 2)) / math.log(self.d - 1)) + 1)

    def describe(self) -> str:
        return self._decorate(f"random-regular(d={self.d})")


@dataclass(frozen=True)
class ErdosRenyiGnp(Topology):
    """Erdős–Rényi ``G(n, p)``.

    ``p=None`` (the default) resolves at bind time to ``2 ln n / n`` —
    comfortably above the ``ln n / n`` connectivity threshold, so the
    sampled graph is connected w.h.p. while staying ``O(n log n)``
    edges.  Isolated vertices (possible at small ``n`` or tiny ``p``)
    simply have nobody to call.
    """

    name: ClassVar[str] = "gnp"
    p: Optional[float] = None
    delay: Optional[DelayModel] = None

    def __post_init__(self) -> None:
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise ValueError(f"edge probability p must be in (0, 1], got {self.p}")

    def bind(self, n: int, rng: np.random.Generator) -> ContactGraph:
        p = self.p if self.p is not None else min(1.0, 2.0 * math.log(n) / n)
        total = n * (n - 1) // 2
        m = int(rng.binomial(total, p))
        # Sample m distinct pair ranks without materialising the O(n^2)
        # pair space: over-draw, deduplicate, top up, then subsample
        # uniformly back to m (np.unique sorts, so a plain [:m] would
        # bias toward small ranks).
        chosen = np.unique(rng.integers(0, total, size=int(m * 1.1) + 16))
        while len(chosen) < m:
            extra = rng.integers(0, total, size=m - len(chosen) + 16)
            chosen = np.unique(np.concatenate([chosen, extra]))
        if len(chosen) > m:
            chosen = rng.choice(chosen, size=m, replace=False)
        u, v = self._unrank(n, chosen)
        return self._contact_graph(n, u, v)

    @staticmethod
    def _unrank(n: int, ranks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map upper-triangle linear ranks to ``(i, j)`` pairs, ``i < j``."""
        def row_start(row: np.ndarray) -> np.ndarray:
            return row * (2 * n - row - 1) // 2

        k = ranks.astype(np.int64)
        b = 2 * n - 1
        i = np.floor((b - np.sqrt(b * b - 8.0 * ranks.astype(np.float64))) / 2.0)
        i = i.astype(np.int64)
        # Float unranking can land one row off at boundaries; nudge back.
        i = np.where(k < row_start(i), i - 1, i)
        i = np.where(k >= row_start(i + 1), i + 1, i)
        j = k - row_start(i) + i + 1
        return i, j

    def diameter_hint(self, n: int) -> int:
        p = self.p if self.p is not None else min(1.0, 2.0 * math.log(max(n, 2)) / n)
        avg_degree = max(p * (n - 1), 2.0)
        # Supercritical G(n, p) diameter ~ ln n / ln(np) w.h.p.; +1
        # slack for the sparse-regime correction.
        return max(1, math.ceil(math.log(max(n, 2)) / math.log(avg_degree)) + 1)

    def describe(self) -> str:
        return self._decorate("gnp" if self.p is None else f"gnp(p={self.p:g})")


#: The default topology — shared instance so identity checks are cheap.
COMPLETE = CompleteGraph()

#: Valid ``direct_addressing`` modes (a Network-level knob, see module
#: docstring): ``"global"`` is the paper's model, ``"topology"``
#: restricts learned addresses to the contact graph's edges.
ADDRESSING_MODES = ("global", "topology")


def resolve_topology(spec: "Topology | str | None") -> Topology:
    """Normalise a topology argument to a spec instance.

    ``None`` is the complete graph; a string is looked up in the
    registry catalogue (no-argument form — parameterised topologies are
    built with :func:`repro.registry.make_topology` or constructed
    directly).
    """
    if spec is None:
        return COMPLETE
    if isinstance(spec, Topology):
        return spec
    if isinstance(spec, str):
        from repro.registry import make_topology

        return make_topology(spec)
    raise TypeError(
        f"topology must be a Topology spec, a registered name, or None; "
        f"got {type(spec).__name__}"
    )


def _register_builtin_topologies() -> None:
    """Register the shipped topologies in the registry catalogue."""
    from repro.registry import TopologySpec, register_topology

    for spec in (
        TopologySpec(
            name="complete",
            factory=CompleteGraph,
            kwargs=(),
            doc="The paper's complete graph (the default): anyone can "
            "phone anyone; bit-identical to the pre-topology engine.",
            complete=True,
        ),
        TopologySpec(
            name="ring",
            factory=Ring,
            kwargs=("k",),
            doc="Ring with window k (2k neighbors): the Theta(n/k)-round "
            "worst case for gossip.",
        ),
        TopologySpec(
            name="torus",
            factory=Torus2D,
            kwargs=(),
            doc="2D wrap-around grid, 4 neighbors: Theta(sqrt(n)) gossip "
            "diameter.",
        ),
        TopologySpec(
            name="random-regular",
            factory=RandomRegular,
            kwargs=("d",),
            doc="Random d-regular graph (configuration model): a sparse "
            "expander, O(log n) gossip w.h.p.",
        ),
        TopologySpec(
            name="gnp",
            factory=ErdosRenyiGnp,
            kwargs=("p",),
            doc="Erdős–Rényi G(n, p); default p = 2 ln n / n, connected "
            "w.h.p.",
        ),
    ):
        register_topology(spec)


_register_builtin_topologies()
