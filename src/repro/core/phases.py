"""The phase recipe of Algorithms 1, 2 and 4 (Sections 4.1, 5.1, 7),
written once for both tiers.

The paper builds its algorithms from the same procedures over the
Section 3.2 macros: GrowInitialClusters, SquareClusters,
MergeAllClusters, BoundedClusterPush and UnclusteredNodesPull.  Each is
written here once, against a *backend*: the clustering state of R
replications and its primitives, each of which takes ``act``, a sorted
array of replication rows (the rows still in play; replications leave
a loop at different iterations).  Two backends implement it:

* :class:`repro.sim.batch_cluster.ClusterBatch`, R replications in
  ``(R, n)`` arrays (the vector tier);
* :class:`SequentialBackend`, one run (R = 1): a
  :class:`~repro.sim.engine.Simulator` and a
  :class:`~repro.core.clustering.Clustering` driven through
  :mod:`repro.core.primitives`, whose coins, accounting and dynamics
  handling stay the sequential tier's own.

A backend has ``reps`` and ``n``; ``active`` and ``uid`` as ``(R, n)``
arrays (activation flags, written in place; uids, compared by order
only); ``liveness_changed``; the primitives ``seed_singletons(prob)``,
``cluster_activate(act, p)`` (``p=None`` activates all),
``cluster_size``, ``cluster_dissolve``, ``cluster_resize``,
``cluster_push(act, senders, reduce)``, ``cluster_merge(act, rows,
cols, targets)``, ``cluster_share``, ``grow_push_round``,
``unclustered_pull_round`` (per-row joiner counts) and
``idle_round(act)``, which return what the algorithms read (the merge
and grow-push counts only where the backend records events); the row
queries ``leaders(act)``,
``leader_sizes(act)`` and ``unclustered_counts(act)``, which spend no
round; and ``phase(name)``, the context each phase runs in (a
``Metrics`` phase, or a telemetry span on the vector tier).  Clusters
come back as triplets ``(rows, cols, values)``: rows local to ``act``,
leader columns, and one value per leader (a size, or a received
cluster ID), row-major except after ``cluster_resize``.  A backend
whose ``records_events`` is true also has ``emit(kind, **data)`` and
``clustered_count()``; the batch backend records no events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core import primitives
from repro.core.clustering import Clustering
from repro.core.constants import Cluster1Params, Cluster2Params
from repro.sim.delivery import NOTHING
from repro.sim.engine import Simulator


@dataclass
class SquareReport:
    """What SquareClusters did (introspected by tests and benches)."""

    iterations: int
    final_nominal_size: int
    sizes_history: List[int]


# ----------------------------------------------------------------------
# The sequential backend
# ----------------------------------------------------------------------


class SequentialBackend:
    """One run as a one-row backend: every primitive is the
    :mod:`repro.core.primitives` function of the same name, in the order
    the recipe calls it, so the run draws its coins and charges its
    rounds exactly as those functions do."""

    reps = 1

    def __init__(self, sim: Simulator, cl: Clustering) -> None:
        self.sim = sim
        self.cl = cl
        self.n = cl.n
        # One-row views: neither array is ever rebound, only written.
        self.active = cl.active[None, :]
        self.uid = sim.net.uid[None, :]

    @property
    def liveness_changed(self) -> bool:
        return self.cl.liveness_changed

    @property
    def records_events(self) -> bool:
        return self.sim.records_events

    def emit(self, kind: str, **data) -> None:
        self.sim.emit(kind, **data)

    def clustered_count(self) -> int:
        return self.cl.clustered_count()

    def phase(self, name: str):
        return self.sim.metrics.phase(name)

    # -- row queries ---------------------------------------------------

    def leaders(self, act) -> Tuple[np.ndarray, np.ndarray]:
        lead = self.cl.leaders()
        return np.zeros(len(lead), dtype=np.int64), lead

    def leader_sizes(self, act) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows, lead = self.leaders(act)
        return rows, lead, self.cl.sizes()[lead]

    def unclustered_counts(self, act) -> np.ndarray:
        return np.array([len(self.cl.unclustered())])

    # -- primitives ----------------------------------------------------

    def seed_singletons(self, prob: float) -> int:
        """Algorithm 1 line 7 / Algorithm 2 line 8: each node becomes a
        singleton active cluster with probability ``prob`` (a local
        coin, no round).  Returns the number of seeds."""
        if not 0.0 < prob <= 1.0:
            raise ValueError(f"seed probability must be in (0,1], got {prob}")
        sim, cl = self.sim, self.cl
        seeds = np.flatnonzero((sim.rng.random(cl.n) < prob) & sim.net.alive)
        if len(seeds) == 0:
            # Tail event (prob (1-p)^n); fall back to one deterministic seed so
            # the algorithm remains well-defined, as a leader election would.
            seeds = sim.net.alive_indices()[:1]
        cl.seed_singletons(seeds)
        cl.active[seeds] = True
        return int(len(seeds))

    def cluster_activate(self, act, p: Optional[float]) -> None:
        if p is None:
            primitives.cluster_activate_all(self.sim, self.cl)
        else:
            primitives.cluster_activate(self.sim, self.cl, p)

    def cluster_size(self, act):
        primitives.cluster_size(self.sim, self.cl)
        return self.leader_sizes(act)

    def cluster_dissolve(self, act, s: int) -> None:
        primitives.cluster_dissolve(self.sim, self.cl, s)

    def cluster_resize(self, act, s: int):
        primitives.cluster_resize(self.sim, self.cl, s)
        return self.leader_sizes(act)

    def cluster_push(self, act, senders: str, reduce: str):
        if senders not in ("active", "clustered"):
            raise ValueError(f"senders must be 'active' or 'clustered', got {senders!r}")
        cl = self.cl
        mask = cl.active_member_mask() if senders == "active" else cl.clustered_mask()
        receipt = primitives.cluster_push(
            self.sim, cl, senders=np.flatnonzero(mask), reduce=reduce
        ).leader_receipt
        rows, lead = self.leaders(act)
        ids = receipt[lead]
        got = ids != NOTHING
        return rows[got], lead[got], ids[got]

    def cluster_merge(self, act, rows, cols, targets) -> int:
        new_leader = np.full(self.n, NOTHING, dtype=np.int64)
        new_leader[cols] = targets
        return primitives.cluster_merge(self.sim, self.cl, new_leader)

    def cluster_share(self, act, informed: np.ndarray) -> np.ndarray:
        return primitives.cluster_share_rumor(self.sim, self.cl, informed[0])[None, :]

    def grow_push_round(self, act, *, active_only: bool = True) -> int:
        return primitives.grow_push_round(self.sim, self.cl, active_only=active_only)

    def unclustered_pull_round(self, act) -> np.ndarray:
        return np.array([primitives.unclustered_pull_round(self.sim, self.cl)])

    def idle_round(self, act) -> None:
        self.sim.idle_round()


# ----------------------------------------------------------------------
# Row helpers
# ----------------------------------------------------------------------


def _rows(b) -> np.ndarray:
    return np.arange(b.reps)


def _with_active_leader(b, act: np.ndarray) -> np.ndarray:
    """Per row of ``act``: does some cluster there stand active?"""
    lr, lc = b.leaders(act)
    out = np.zeros(len(act), dtype=bool)
    out[lr[b.active[act[lr], lc]]] = True
    return out


def _cluster_counts(b, act: np.ndarray) -> np.ndarray:
    return np.bincount(b.leaders(act)[0], minlength=len(act))


def _cluster_count(b) -> int:
    return len(b.leaders(_rows(b))[1])


def _active_count(b) -> int:
    lr, lc = b.leaders(_rows(b))
    return int(b.active[lr, lc].sum())


def _size_at(table: Tuple[np.ndarray, np.ndarray], keys: np.ndarray) -> np.ndarray:
    """The sizes ``table`` holds for the leaders ``keys``, 0 for a leader
    it does not hold (one that led nothing when the table was taken).
    ``table`` is ``(keys, sizes)``, its leader keys ``row * n + column``
    in ascending order."""
    tkeys, tsizes = table
    if len(tkeys) == 0:
        return np.zeros(len(keys), dtype=np.int64)
    i = np.searchsorted(tkeys, keys).clip(max=len(tkeys) - 1)
    return np.where(tkeys[i] == keys, tsizes[i], 0)


def _activate_some(b, act: np.ndarray) -> None:
    """Safety net for the w.h.p. event "at least one cluster activates".

    At laptop ``n`` with few clusters the (1 - 1/s)^k miss probability is
    not negligible; the paper's remedy would be retrying the activation
    (another O(1) rounds).  Rows whose coins missed every cluster promote
    their smallest-uid leader instead, which is what the retry converges
    to, and spend one extra activation round.
    """
    lr, lc = b.leaders(act)
    g = act[lr]
    fix = np.zeros(len(act), dtype=bool)
    fix[lr] = True
    fix[lr[b.active[g, lc]]] = False
    if not fix.any():
        return
    sel = np.flatnonzero(fix[lr])
    order = sel[np.lexsort((b.uid[g[sel], lc[sel]], lr[sel]))]
    first = order[np.flatnonzero(np.diff(lr[order], prepend=-1))]
    b.active[g[first], lc[first]] = True
    b.idle_round(act[fix])


def _recruit_inactive(b, act: np.ndarray, reduce: str):
    """One ClusterPUSH / ClusterMerge repetition: active-cluster members
    push their cluster ID, and every inactive cluster that (directly or
    via relay) received one merges into it.  Returns the merge count (on
    the sequential backend).

    Receipts can only carry active-cluster IDs (only active clusters
    pushed), so a receipt naming an inactive cluster is a bug, unless a
    dynamics timeline crashed the recruiter after it pushed: such a
    receipt is stale, and its receiver drops it (the merge offer expired
    with the cluster).
    """
    rows, cols, ids = b.cluster_push(act, "active", reduce)
    inactive = ~b.active[act[rows], cols]
    rows, cols, ids = rows[inactive], cols[inactive], ids[inactive]
    live = b.active[act[rows], ids]
    if not live.all():
        if not b.liveness_changed:
            raise RuntimeError("merge target is not an active cluster")
        rows, cols, ids = rows[live], cols[live], ids[live]
    return b.cluster_merge(act, rows, cols, ids)


# ----------------------------------------------------------------------
# GrowInitialClusters
# ----------------------------------------------------------------------


def grow_v1(b, params: Cluster1Params) -> None:
    """Algorithm 1, Procedure GrowInitialClusters: seed a ``1/(C log n)``
    fraction of nodes as singleton clusters, then ``Theta(log log n)``
    PUSH rounds in which unclustered receivers join a random pushing
    cluster; ~90% of nodes end up clustered (Lemma 5)."""
    with b.phase("grow"):
        seeds = b.seed_singletons(params.seed_prob)
        if b.records_events:
            b.emit("grow.seeded", seeds=seeds)
        act = _rows(b)
        for _ in range(params.grow_rounds):
            joined = b.grow_push_round(act, active_only=False)
            if b.records_events:
                b.emit("grow.push", joined=joined, clustered=b.clustered_count())


def grow_v2(b, params: Cluster2Params) -> None:
    """Algorithm 2, Procedure GrowInitialClusters (size-controlled).

    Far fewer seeds; each iteration measures growth (ClusterSize), a
    cluster deactivates once it is big and its growth factor dips below
    ``2 - 1/log n`` (a ``Theta(target_fraction)`` share of the network
    is clustered: Lemmas 10/11), and big clusters still growing are
    split (ClusterResize) so no leader talks to too many followers.
    """
    with b.phase("grow"):
        seeds = b.seed_singletons(params.seed_prob)
        act = _rows(b)
        b.cluster_activate(act, None)
        if b.records_events:
            b.emit("grow.seeded", seeds=seeds)
        # Every leader's last measured size, 0 elsewhere, held at the
        # leader's own (row, column), so a resize that changes who leads
        # cannot pair a ratio with another cluster's size.
        prev = np.zeros((b.reps, b.n))
        lr, lc, sizes = b.leader_sizes(act)
        prev[act[lr], lc] = sizes
        for _ in range(params.grow_rounds_cap):
            act = act[_with_active_leader(b, act)]
            if len(act) == 0:
                break
            b.grow_push_round(act, active_only=True)
            lr, lc, sizes = b.cluster_size(act)
            g = act[lr]
            big = sizes >= params.big_size
            grew = sizes / np.maximum(prev[g, lc], 1.0)
            stalled = big & (grew < params.growth_stop_factor)
            b.active[g[stalled], lc[stalled]] = False
            # Big clusters still growing get split so no cluster (and no
            # leader's fan-in) runs away (Algorithm 2 line 17); only the
            # rows that hold one pay the two ClusterResize rounds.
            resizing = np.zeros(len(act), dtype=bool)
            resizing[lr[big & ~stalled]] = True
            prev[act] = 0.0
            keep = ~resizing[lr]
            prev[g[keep], lc[keep]] = sizes[keep]
            if resizing.any():
                sub = act[resizing]
                r2, c2, s2 = b.cluster_resize(sub, params.big_size)
                prev[sub[r2], c2] = s2
            if b.records_events:
                b.emit(
                    "grow.push",
                    clustered=b.clustered_count(),
                    clusters=_cluster_count(b),
                    active=_active_count(b),
                    stalled=int(stalled.sum()),
                )
        b.active[:] = False


# ----------------------------------------------------------------------
# SquareClusters
# ----------------------------------------------------------------------


def square(b, *, s0: int, dissolve_at: int, target: float, step, reduce: str) -> SquareReport:
    """SquareClusters: from clusters of polylogarithmic size ``s``, each
    iteration normalises sizes into ``[s, 2s)`` (ClusterResize), elects
    ~``1/s`` of the clusters as recruiters (ClusterActivate), and twice
    lets the inactive clusters merge into a received recruiter ID (the
    smallest for Cluster1, a random one for Cluster2).  The size squares
    (Lemma 6) or grows by ``Theta(x* s^2)`` (Lemma 12), so
    ``Theta(log log n)`` iterations reach the target.  The s-progression
    is a pure function of the parameters, so every row runs the same
    iterations."""
    act = _rows(b)
    history: List[int] = []
    with b.phase("square"):
        s = s0
        b.cluster_dissolve(act, dissolve_at)
        while s <= target:
            b.cluster_resize(act, s)
            b.cluster_activate(act, 1.0 / s)
            _activate_some(b, act)
            for _ in range(2):
                _recruit_inactive(b, act, reduce)
            s = step(s)
            history.append(s)
            if b.records_events:
                b.emit(
                    "square.iter",
                    s=s,
                    clusters=_cluster_count(b),
                    clustered=b.clustered_count(),
                )
    return SquareReport(len(history), s, history)


def square_v1(b, params: Cluster1Params) -> SquareReport:
    """Algorithm 1, Procedure SquareClusters (min-ID merges)."""
    return square(
        b,
        s0=params.min_cluster_size,
        dissolve_at=params.min_cluster_size,
        target=params.square_target,
        step=params.square_step,
        reduce="min",
    )


def square_v2(b, params: Cluster2Params, *, stop_at: Optional[float] = None) -> SquareReport:
    """Algorithm 2, Procedure SquareClusters (random-ID merges).

    ``stop_at`` overrides the squaring target: Cluster3 stops at
    ``sqrt(Δ log n)/C''`` (Algorithm 4 line 2).
    """
    return square(
        b,
        s0=params.square_floor,
        dissolve_at=params.dissolve_floor,
        target=params.square_target if stop_at is None else stop_at,
        step=params.square_step,
        reduce="any",
    )


# ----------------------------------------------------------------------
# MergeAllClusters
# ----------------------------------------------------------------------


def merge_all(b, reps: int = 2) -> int:
    """Algorithms 1/2, Procedure MergeAllClusters: every cluster
    ClusterPUSHes its ID and merges into the smallest ID it received.
    The smallest-ID cluster never merges and absorbs everything; the
    paper's two repetitions suffice w.h.p. asymptotically, and up to
    ``reps`` run at small ``n`` while a row holds more than one cluster
    (counted; DESIGN.md substitution 4).  Returns the repetitions used.
    """
    act = _rows(b)
    used = 0
    mandatory = min(2, max(1, reps))  # the paper's "two repetitions"
    with b.phase("merge-all"):
        for rep in range(max(1, reps)):
            if rep >= mandatory:
                act = act[_cluster_counts(b, act) > 1]
                if len(act) == 0:
                    break
            used += 1
            rows, cols, ids = b.cluster_push(act, "clustered", "min")
            # Merge towards strictly smaller uids only: acyclic by
            # construction, and the smallest-ID cluster stays put.
            g = act[rows]
            better = b.uid[g, ids] < b.uid[g, cols]
            merged = b.cluster_merge(act, rows[better], cols[better], ids[better])
            if b.records_events:
                b.emit("merge-all.rep", rep=rep, merged=merged, clusters=_cluster_count(b))
    return used


# ----------------------------------------------------------------------
# BoundedClusterPush and UnclusteredNodesPull
# ----------------------------------------------------------------------


def bounded_push(
    b, *, growth_stop: float, rounds_cap: int, resize_to: Optional[int] = None
) -> None:
    """Algorithm 2, Procedure BoundedClusterPush (and Algorithm 4's
    variant): all clusters activate and PUSH-recruit unclustered nodes,
    measuring their growth via ClusterSize; a cluster that grows by less
    than ``growth_stop`` (1.1 in the paper) deactivates.  The giant
    cluster reaches a constant fraction of the network, so the PULL
    endgame costs O(n) messages (Lemma 13).  With ``resize_to``
    (Cluster3) every round starts with a ``ClusterResize(resize_to)``,
    so no cluster exceeds ``2 * resize_to`` members.

    Each growth ratio divides a leader's size by that same leader's size
    before the push: a leader can crash mid-iteration, and a resize
    changes which node leads.
    """
    n = b.n
    with b.phase("bounded-push"):
        act = _rows(b)
        b.cluster_activate(act, None)
        prev = b.clustered_count() if b.records_events else 0
        for _ in range(rounds_cap):
            act = act[_with_active_leader(b, act)]
            if len(act) == 0:
                break
            if resize_to is not None:
                b.cluster_resize(act, resize_to)
            lr, lc, sizes = b.leader_sizes(act)
            before = (act[lr] * n + lc, sizes)
            b.grow_push_round(act, active_only=True)
            lr, lc, after = b.cluster_size(act)
            g = act[lr]
            grew = after / np.maximum(_size_at(before, g * n + lc), 1.0)
            stalled = grew < growth_stop
            b.active[g[stalled], lc[stalled]] = False
            if b.records_events:
                clustered = b.clustered_count()
                b.emit(
                    "bounded-push.round",
                    clustered=clustered,
                    gained=clustered - prev,
                    active=_active_count(b),
                )
                prev = clustered
        b.active[:] = False


def pull(b, rounds: int, *, resize_to: Optional[int] = None) -> int:
    """Algorithm 1, Procedure UnclusteredNodesPull: the doubly-exponential
    PULL endgame (Lemma 8).  Each unclustered node pulls a random node per
    round and joins the cluster it hears about, so the unclustered
    fraction ``x`` squares (``x -> ~2x^2``) per round.

    Runs ``rounds`` PULL rounds (the paper's fixed ``Theta(log log n)``
    schedule); a row stops early once nobody there is unclustered.  With
    ``resize_to`` (Cluster3), every pull round that clustered someone is
    followed by a ``ClusterResize``, so popular clusters cannot balloon
    past ``2 * resize_to`` before the final normalisation.  Returns the
    number of still-unclustered alive nodes.
    """
    act = _rows(b)
    with b.phase("pull"):
        for _ in range(rounds):
            act = act[b.unclustered_counts(act) > 0]
            if len(act) == 0:
                break
            joined = b.unclustered_pull_round(act)
            if resize_to is not None:
                grew = act[joined > 0]
                if len(grew):
                    b.cluster_resize(grew, resize_to)
            if b.records_events:
                b.emit(
                    "pull.round",
                    joined=int(joined.sum()),
                    unclustered=int(b.unclustered_counts(_rows(b)).sum()),
                )
    return int(b.unclustered_counts(_rows(b)).sum())


def share(b, informed: np.ndarray) -> np.ndarray:
    """ClusterShare(rumor) over the final clustering; ``informed`` is the
    ``(R, n)`` mask of nodes holding the rumor.  Returns the new mask."""
    with b.phase("share"):
        return b.cluster_share(_rows(b), informed)


# ----------------------------------------------------------------------
# The phase lists
# ----------------------------------------------------------------------


def cluster1_phases(b, params: Cluster1Params) -> Tuple[SquareReport, int]:
    """Algorithm 1's construction: grow, square, merge all, pull.
    Returns the squaring report and the merge repetitions used."""
    grow_v1(b, params)
    report = square_v1(b, params)
    merge_reps = merge_all(b, params.merge_reps)
    pull(b, params.pull_rounds)
    return report, merge_reps


def cluster2_phases(b, params: Cluster2Params) -> Tuple[SquareReport, int]:
    """Algorithm 2's construction: size-controlled grow, square, merge
    all, bounded push, pull.  Returns the squaring report and the merge
    repetitions used."""
    grow_v2(b, params)
    report = square_v2(b, params)
    merge_reps = merge_all(b, params.merge_reps)
    bounded_push(
        b,
        growth_stop=params.bounded_push_growth_stop,
        rounds_cap=params.bounded_push_rounds_cap,
    )
    pull(b, params.pull_rounds)
    return report, merge_reps
