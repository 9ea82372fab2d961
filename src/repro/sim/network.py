"""The complete network of the random phone call model.

Holds the node table: dense indices ``0..n-1``, the random unique ``uid`` of
each node (its O(log n)-bit address), and liveness.  Liveness covers both
the fault-tolerance setting of Section 8 (an oblivious adversary fails
nodes *before* the execution starts; failed nodes neither initiate nor
respond) and the dynamic-adversity extension of :mod:`repro.sim.dynamics`
(mid-run crashes, blackouts, and revivals, applied at round boundaries).

Liveness changes bump a monotone *epoch* counter, so hot paths that need
the alive-index set can cache it per epoch instead of rescanning the
boolean table every call — :meth:`Network.alive_indices` does exactly
that.  All liveness mutations must go through :meth:`Network.fail` /
:meth:`Network.revive`; writing ``net.alive`` directly would bypass the
epoch and serve stale caches.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.sim.ids import IdSpace
from repro.sim.messages import MessageSizes
from repro.sim.rng import SeedLike, make_rng
from repro.sim.topology import ADDRESSING_MODES, ContactGraph, Topology, resolve_topology


class Network:
    """A complete ``n``-node network with random unique addresses.

    Parameters
    ----------
    n:
        Number of nodes.
    rng:
        Seed or generator used (only) for assigning uids.
    rumor_bits:
        Broadcast payload size ``b``; stored here because the message-size
        model is a property of the network instance.
    id_space_exponent:
        Exponent of the polynomial ID space.
    topology:
        Contact topology (:mod:`repro.sim.topology`): a frozen
        :class:`~repro.sim.topology.Topology` spec, a registered name,
        or ``None`` for the paper's complete graph.  The complete graph
        binds no adjacency and keeps :meth:`random_targets` on its
        historical (bit-identical) path; every other topology
        materialises a :class:`~repro.sim.topology.ContactGraph` from
        this network's construction stream (after the uids), so random
        graphs are re-sampled per seed.
    direct_addressing:
        ``"global"`` (the paper's model, default): a learned address is
        routable regardless of the contact graph.  ``"topology"``: a
        direct call only connects along a contact-graph edge — calls to
        non-neighbors go into the void (charged, undelivered).  See
        :meth:`connection_mask`.
    """

    def __init__(
        self,
        n: int,
        rng: SeedLike = 0,
        *,
        rumor_bits: int = 256,
        id_space_exponent: int = 3,
        topology: "Topology | str | None" = None,
        direct_addressing: str = "global",
    ) -> None:
        if n < 1:
            raise ValueError(f"a network needs at least 1 node, got n={n}")
        if direct_addressing not in ADDRESSING_MODES:
            raise ValueError(
                f"direct_addressing must be one of {ADDRESSING_MODES}, "
                f"got {direct_addressing!r}"
            )
        self.n = int(n)
        self.topology = resolve_topology(topology)
        self.direct_addressing = direct_addressing
        self.id_space = IdSpace(self.n, id_space_exponent)
        gen = make_rng(rng)
        self.uid = self.id_space.assign(gen)
        #: The bound contact graph; ``None`` on the complete topology
        #: (no CSR is ever built — see :mod:`repro.sim.topology`).
        self.graph: Optional[ContactGraph] = self.topology.bind(self.n, gen)
        self.alive = np.ones(self.n, dtype=bool)
        self.sizes = MessageSizes(
            self.n, rumor_bits=rumor_bits, id_space_exponent=id_space_exponent
        )
        self._liveness_epoch = 0
        self._alive_cache_epoch = -1
        self._alive_cache: Optional[np.ndarray] = None

    def reset(self, rng: SeedLike = 0) -> "Network":
        """Re-seed this network in place, reusing every allocation.

        Equivalent to constructing ``Network(n, rng, ...)`` with the same
        shape parameters — same uids, same all-alive liveness — but the
        ``uid`` and ``alive`` arrays (the only O(n) state) are rewritten
        rather than reallocated, so a replication suite pays construction
        cost once instead of once per seed.  The liveness epoch advances,
        invalidating every per-epoch cache held by consumers.  A bound
        *random* contact graph is re-materialised from the new stream
        (random topologies are per-seed), exactly as a fresh
        construction would; deterministic topologies (ring, torus) keep
        their bound graph — their bind ignores the stream and would
        rebuild an identical CSR, so reuse is bit-identical and free.
        """
        gen = make_rng(rng)
        self.id_space.assign(gen, out=self.uid)
        if self.graph is not None and not self.topology.deterministic:
            self.graph = self.topology.bind(self.n, gen)
        self.alive.fill(True)
        self._liveness_epoch += 1
        return self

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def topology_restricted(self) -> bool:
        """True when random contacts are limited to a bound graph."""
        return self.graph is not None

    @property
    def routes_restricted(self) -> bool:
        """True when even *direct-addressed* calls must follow edges
        (``direct_addressing="topology"`` on a non-complete graph)."""
        return self.graph is not None and self.direct_addressing == "topology"

    def connection_mask(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Per-pair mask of *establishable* connections.

        A connection is established iff the target exists (stale direct
        addresses and the ``-1`` nobody-to-call sentinel fail), is
        alive, and — under ``direct_addressing="topology"`` — lies
        along a contact-graph edge.  This is the engine's arrival rule
        on every non-fast path, and what connection-oriented task
        transports consult before staging content.
        """
        dsts = np.asarray(dsts)
        valid = (dsts >= 0) & (dsts < self.n)
        if valid.all():
            # The common case even under dynamics: every declared target
            # is a real index, so the existence test collapses away.
            ok = self.alive[dsts]
        else:
            ok = valid & self.alive[np.where(valid, dsts, 0)]
        if self.routes_restricted:
            ok = ok & self.graph.reachable(srcs, dsts)
        return ok

    # ------------------------------------------------------------------
    # Liveness / failures
    # ------------------------------------------------------------------

    @property
    def liveness_epoch(self) -> int:
        """Monotone counter bumped by every liveness change.

        Consumers holding per-liveness-state caches (alive index sets,
        partitions over alive nodes, ...) compare against it to know when
        to rebuild; with the static Section 8 adversary it never moves
        after setup, so those caches live for the whole execution.
        """
        return self._liveness_epoch

    def fail(self, indices: Iterable[int]) -> None:
        """Fail the given nodes.

        In the paper's static Section 8 setting this is called before the
        algorithm starts to keep the adversary oblivious; the engine does
        not enforce that (tests do).  The dynamics subsystem
        (:mod:`repro.sim.dynamics`) additionally calls it at round
        boundaries for mid-run crashes and blackout windows.
        """
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self.n:
            raise IndexError("failure index out of range")
        self.alive[idx] = False
        self._liveness_epoch += 1

    def revive(self, indices: Iterable[int]) -> None:
        """Bring the given nodes back (blackout end, churn re-join).

        Revived nodes initiate, respond and receive again from the next
        round on; what they *know* is the algorithm's business.
        """
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self.n:
            raise IndexError("revival index out of range")
        self.alive[idx] = True
        self._liveness_epoch += 1

    @property
    def alive_count(self) -> int:
        """Number of surviving nodes."""
        return int(self.alive.sum())

    def alive_indices(self) -> np.ndarray:
        """Indices of surviving nodes (cached per liveness epoch).

        The returned array is shared with the cache — treat it as
        read-only, like ``alive`` itself.
        """
        if self._alive_cache_epoch != self._liveness_epoch:
            self._alive_cache = np.flatnonzero(self.alive)
            self._alive_cache_epoch = self._liveness_epoch
        return self._alive_cache

    def filter_alive(self, indices: np.ndarray) -> np.ndarray:
        """Subset of ``indices`` that are alive."""
        indices = np.asarray(indices)
        return indices[self.alive[indices]]

    # ------------------------------------------------------------------
    # Addressing helpers
    # ------------------------------------------------------------------

    def min_uid_index(self, indices: Optional[np.ndarray] = None) -> int:
        """Index of the node with the smallest uid among ``indices``.

        The paper's merge rules pick "the cluster with the smallest ID";
        cluster ID is the leader's uid (Section 3.1).
        """
        if indices is None:
            indices = np.arange(self.n)
        indices = np.asarray(indices)
        if indices.size == 0:
            raise ValueError("min_uid_index of empty index set")
        return int(indices[np.argmin(self.uid[indices])])

    def random_targets(
        self,
        count: int,
        rng: np.random.Generator,
        *,
        exclude: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Uniformly random contact targets (may be dead — contacts to
        failed nodes are simply lost, as in the model).

        ``exclude`` (parallel to the output) removes one index per draw:
        in the random phone call model a node phones a uniformly random
        *other* node, so callers pass their source indices here.  The
        draw stays a single vectorised sample: pick from ``n - 1`` slots
        and shift the ones at or above the excluded index up by one.

        Targets are ``int64``, numpy's native index type: a narrower dtype
        would be converted back on every fancy index the engine makes.

        On a restricted topology the draw delegates to the bound
        graph's liveness-aware :meth:`~repro.sim.topology.ContactGraph.
        sample_contacts`: each caller dials a uniform random *alive*
        neighbor (``-1`` when it has none — the engine voids such
        contacts).  ``exclude`` then names the callers and is required;
        self-exclusion is structural (no self-loops).
        """
        if self.graph is not None:
            if exclude is None:
                raise ValueError(
                    "topology-restricted sampling draws from each caller's "
                    "neighborhood; pass the caller indices via exclude="
                )
            callers = np.asarray(exclude)
            if callers.shape != (count,):
                raise ValueError(
                    f"exclude has shape {callers.shape}, expected ({count},)"
                )
            return self.graph.sample_contacts(
                callers, rng, alive=self.alive, epoch=self._liveness_epoch
            )
        if exclude is None:
            return rng.integers(0, self.n, size=count, dtype=np.int64)
        exclude = np.asarray(exclude)
        if exclude.shape != (count,):
            raise ValueError(
                f"exclude has shape {exclude.shape}, expected ({count},)"
            )
        if self.n == 1:
            # A dial-out with no other node to call: the void sentinel,
            # same as an isolated caller on a restricted topology (the
            # engine charges the contact and delivers it nowhere).
            return np.full(count, -1, dtype=np.int64)
        targets = rng.integers(0, self.n - 1, size=count, dtype=np.int64)
        targets += targets >= exclude
        return targets
