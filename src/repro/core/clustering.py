"""Clustering state (paper, Section 3.1).

A clustering partitions the nodes into disjoint clusters, each with a
*leader* known to all its members, plus a set of *unclustered* nodes.  The
entire structure is carried by one per-node variable ``follow``:

* ``follow[v] == UNCLUSTERED`` — v is unclustered (the paper's ∞);
* ``follow[v] == v``           — v is a cluster leader;
* otherwise                    — v follows leader ``follow[v]``.

The *ID of a cluster* is the uid of its leader; the *size* of a cluster is
its member count (leader included).  An ``active`` flag per cluster (stored
at the leader, established by ``ClusterActivate``) gates which clusters act
in a given phase.

Invariant (checked by :meth:`Clustering.check_invariants`): after every
primitive, every clustered node points directly at a leader —
``follow[follow[v]] == follow[v]``.  ``ClusterMerge`` can transiently
create pointer chains; :meth:`compress` resolves them (DESIGN.md
substitution 3).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Tuple

import numpy as np

from repro.sim.network import Network

#: The paper's ∞ ("not clustered").
UNCLUSTERED = -1


def split_chunks(size: np.ndarray, k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """ClusterResize's split (Section 3.2, footnote 2) of clusters laid
    out back to back — the one split kernel of both tiers.

    Cluster ``j``'s ``size[j] >= 1`` members sit in one contiguous block
    in ascending uid order, and it splits into ``k[j]`` near-equal
    chunks: the member of rank ``r`` joins chunk ``r * k[j] // size[j]``.
    Returns ``(chunk, last)``: ``chunk[i]`` numbers member ``i``'s chunk
    across all clusters in layout order, and ``last[c]`` is the position
    of chunk ``c``'s last member, whose uid is the chunk's largest and
    who leads it.  With ``k[j] >= size[j]`` every member leads itself.
    """
    total = int(size.sum())
    starts = np.cumsum(size) - size
    cluster = np.repeat(np.arange(len(size)), size)
    rank = np.arange(total) - starts[cluster]
    part = (rank * k[cluster]) // size[cluster]
    new = np.zeros(total, dtype=bool)
    new[starts] = True
    new[1:] |= part[1:] != part[:-1]
    end = np.ones(total, dtype=bool)  # the next member starts a chunk
    end[:-1] = new[1:]
    return np.cumsum(new) - 1, np.flatnonzero(end)


def _view(derive: Callable[["Clustering"], np.ndarray]) -> Callable:
    """A view derived from ``follow`` and liveness: computed on the
    first read of a clustering state, then served read-only until
    :meth:`Clustering.set_follow` or a liveness change starts the next
    state."""
    name = derive.__name__

    @functools.wraps(derive)
    def view(self: "Clustering") -> np.ndarray:
        self._sync()
        out = self._views.get(name)
        if out is None:
            out = self._views[name] = derive(self)
            out.flags.writeable = False
        return out

    return view


class Clustering:
    """Mutable clustering over a :class:`~repro.sim.network.Network`.

    Dead nodes are permanently unclustered; every accessor filters them.

    :meth:`set_follow` is the one writer of ``follow``.  Each write bumps
    :attr:`version`, and so does a liveness change, since every view
    masks by liveness.  The masks, ``leaders()``, ``followers()``,
    ``unclustered()`` and ``sizes()`` are derived once per version, and
    they and ``follow`` are handed out read-only, so a write that
    bypasses the writer raises instead of leaving a view stale.
    ``active`` is a plain array the phases write directly; nothing is
    cached on it.

    Under the static Section 8 adversary liveness never changes mid-run.
    Under a dynamics timeline (:mod:`repro.sim.dynamics`) it can: a
    leader may crash with followers still pointing at it.  The clustering
    watches the network's liveness *epoch* and lazily reconciles on
    change — members whose leader is dead drop back to unclustered (their
    super-node is gone; the pull/catch-up phases treat them like any
    other unclustered node).  The epoch check is O(1), so the static
    path pays one integer compare per accessor.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self._follow = np.full(net.n, UNCLUSTERED, dtype=np.int64)
        self._follow_view = self._follow.view()
        self._follow_view.flags.writeable = False
        self.active = np.zeros(net.n, dtype=bool)
        #: The clustering state's number; the views are derived once per
        #: version (see :meth:`set_follow`).
        self.version = 0
        self._views: Dict[str, np.ndarray] = {}
        self._synced_epoch = net.liveness_epoch
        self._construction_epoch = net.liveness_epoch
        #: Sticky: liveness changed after construction (a dynamics run).
        self._dynamic = False

    @property
    def follow(self) -> np.ndarray:
        """The per-node leader pointers, read-only; write through
        :meth:`set_follow`."""
        return self._follow_view

    def set_follow(self, nodes, leaders) -> None:
        """``follow[nodes] = leaders`` — the one writer of ``follow``.

        ``nodes`` is any numpy index (indices, a mask, a slice).  Starts
        a new :attr:`version`, dropping every derived view.
        """
        self._follow[nodes] = leaders
        self._next_version()

    def _next_version(self) -> None:
        self.version += 1
        self._views = {}

    @property
    def liveness_changed(self) -> bool:
        """True once liveness has moved since this clustering was built —
        i.e. a dynamics timeline is rewriting the world mid-run and stale
        cluster information (IDs learned before a crash) is expected."""
        return self._dynamic or self.net.liveness_epoch != self._construction_epoch

    def _sync(self, force: bool = False) -> None:
        """Reconcile with liveness changes since the last accessor call.

        Iterates because unclustering an orphan can strand nodes deeper in
        a transient follow chain; chains are short (see :meth:`compress`).
        ``force`` re-reconciles even on an unchanged epoch: in a dynamic
        run an algorithm may follow a node using stale in-flight data
        (e.g. a cluster invite sent before the inviter's cluster
        dissolved), creating new stale pointers with no epoch bump.
        """
        epoch = self.net.liveness_epoch
        if epoch == self._synced_epoch and not (force and self._dynamic):
            return
        if epoch != self._synced_epoch:
            self._dynamic = True
            self._next_version()  # every view masks by liveness
        alive = self.net.alive
        for _ in range(64):
            clustered = np.flatnonzero(self.follow != UNCLUSTERED)
            if not len(clustered):
                break
            parents = self.follow[clustered]
            stranded = ~alive[parents] | (
                (self.follow[parents] == UNCLUSTERED) & (parents != clustered)
            )
            if not stranded.any():
                break
            self.set_follow(clustered[stranded], UNCLUSTERED)
        self.active[~alive] = False
        self._synced_epoch = epoch

    # ------------------------------------------------------------------
    # Masks and views
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.net.n

    @_view
    def clustered_mask(self) -> np.ndarray:
        """Alive nodes that belong to some cluster."""
        return (self.follow != UNCLUSTERED) & self.net.alive

    @_view
    def unclustered_mask(self) -> np.ndarray:
        """Alive nodes with follow == ∞."""
        return (self.follow == UNCLUSTERED) & self.net.alive

    @_view
    def leader_mask(self) -> np.ndarray:
        """Alive nodes that lead their own cluster."""
        return (self.follow == np.arange(self.n)) & self.net.alive

    @_view
    def follower_mask(self) -> np.ndarray:
        """Alive clustered nodes that are not leaders."""
        return self.clustered_mask() & ~self.leader_mask()

    @_view
    def leaders(self) -> np.ndarray:
        """Indices of alive leaders."""
        return np.flatnonzero(self.leader_mask())

    @_view
    def followers(self) -> np.ndarray:
        """Indices of alive followers."""
        return np.flatnonzero(self.follower_mask())

    @_view
    def unclustered(self) -> np.ndarray:
        """Indices of alive unclustered nodes."""
        return np.flatnonzero(self.unclustered_mask())

    def clustered_count(self) -> int:
        """Number of alive clustered nodes."""
        return len(self.leaders()) + len(self.followers())

    def cluster_count(self) -> int:
        """Number of clusters."""
        return len(self.leaders())

    @_view
    def sizes(self) -> np.ndarray:
        """Cluster size per node index; ``sizes()[l]`` is the member count
        (leader included) of the cluster led by ``l``, 0 for non-leaders."""
        out = np.zeros(self.n, dtype=np.int64)
        members = np.flatnonzero(self.clustered_mask())
        if len(members):
            counts = np.bincount(self.follow[members], minlength=self.n)
            lead = self.leaders()
            out[lead] = counts[lead]
        return out

    def by_cluster(self, members: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``members`` laid out cluster by cluster (by leader index), in
        ascending uid order within each cluster — the layout
        :func:`split_chunks` takes — and the position where each
        cluster's block starts."""
        members = members[np.lexsort((self.net.uid[members], self.follow[members]))]
        starts = np.flatnonzero(np.diff(self.follow[members], prepend=UNCLUSTERED))
        return members, starts

    def active_member_mask(self) -> np.ndarray:
        """Alive clustered nodes whose cluster is active."""
        mask = self.clustered_mask()
        out = np.zeros(self.n, dtype=bool)
        idx = np.flatnonzero(mask)
        out[idx] = self.active[self.follow[idx]]
        return out

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def seed_singletons(self, indices: np.ndarray) -> None:
        """Make each given (alive) node a singleton cluster leader."""
        indices = self.net.filter_alive(np.asarray(indices, dtype=np.int64))
        self.set_follow(indices, indices)

    def disband(self, leader_indices: np.ndarray) -> None:
        """Dissolve the clusters led by the given leaders."""
        leader_indices = np.asarray(leader_indices, dtype=np.int64)
        if len(leader_indices) == 0:
            return
        mask = np.isin(self.follow, leader_indices)
        self.set_follow(mask, UNCLUSTERED)
        self.active[leader_indices] = False

    def compress(self, max_hops: int = 64) -> None:
        """Resolve follow-pointer chains so members point at true leaders.

        Merge rules in the paper are acyclic (smaller-uid targets, or
        inactive→active), so chains resolve in a few hops; a cycle would be
        an algorithm bug and raises after ``max_hops``.
        """
        self._sync(force=True)
        clustered = np.flatnonzero(self.clustered_mask())
        for _ in range(max_hops):
            parents = self.follow[clustered]
            grand = self.follow[parents]
            stale = grand != parents
            if not stale.any():
                return
            # A parent that became unclustered strands its members; that
            # would be an algorithm bug (dissolve handles members itself).
            if (grand[stale] == UNCLUSTERED).any():
                raise RuntimeError("follow chain leads to an unclustered node")
            self.set_follow(clustered[stale], grand[stale])
        raise RuntimeError(f"follow chains not resolved in {max_hops} hops (cycle?)")

    # ------------------------------------------------------------------
    # Validation / introspection
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if the clustering is inconsistent."""
        self._sync(force=True)
        alive = self.net.alive
        clustered = (self.follow != UNCLUSTERED) & alive
        idx = np.flatnonzero(clustered)
        if len(idx):
            parents = self.follow[idx]
            assert (parents >= 0).all() and (parents < self.n).all(), "follow out of range"
            assert (
                self.follow[parents] == parents
            ).all(), "a clustered node follows a non-leader"
            assert alive[parents].all(), "a clustered node follows a dead node"
        dead = np.flatnonzero(~alive)
        # Dead nodes may retain stale follow values; they are filtered by
        # every accessor, so only check they are never counted as leaders.
        assert not ((self.follow[dead] == dead) & alive[dead]).any()

    def summary(self) -> str:
        """One-line state summary for logs."""
        sizes = self.sizes()
        lead = self.leaders()
        if len(lead) == 0:
            return "no clusters"
        s = sizes[lead]
        return (
            f"{len(lead)} clusters, sizes [{int(s.min())}..{int(s.max())}], "
            f"{self.clustered_count()}/{self.net.alive_count} alive nodes clustered"
        )
