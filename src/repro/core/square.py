"""SquareClusters — repeated cluster-size squaring (Sections 4.1, 5.1).

The engine room of the ``O(log log n)`` bound: starting from clusters of
polylogarithmic size ``s``, each iteration

1. ``ClusterResize(s)`` — normalise sizes into ``[s, 2s)``;
2. ``ClusterActivate(1/s)`` — elect ~``1/s`` of the clusters as recruiters;
3. twice: active clusters ``ClusterPUSH`` their ID; inactive clusters
   ``ClusterMerge`` into a received ID (the smallest for Cluster1, a random
   one for Cluster2).

An active cluster of size ``s`` sends ``s`` pushes, reaching ``Theta(s)``
distinct inactive clusters (Cluster1's regime where most nodes are
clustered) or ``Theta(x* s)`` of them (Cluster2's regime where only an
``x*`` fraction is), each contributing ``~s`` members — so the size squares
(Lemma 6) or grows by ``Theta(x* s^2)`` (Lemma 12).  Squaring needs only
``Theta(log log n)`` iterations to reach the target size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.core.clustering import Clustering
from repro.core.constants import Cluster1Params, Cluster2Params
from repro.core.primitives import (
    cluster_activate,
    cluster_dissolve,
    cluster_merge,
    cluster_push,
    cluster_resize,
)
from repro.sim.delivery import NOTHING
from repro.sim.engine import Simulator


@dataclass
class SquareReport:
    """What SquareClusters did (introspected by tests and benches)."""

    iterations: int
    final_nominal_size: int
    sizes_history: List[int]


def _recruit_inactive(
    sim: Simulator, cl: Clustering, *, reduce: str, label: str
) -> int:
    """One ClusterPUSH / ClusterMerge repetition.

    Active-cluster members push their cluster ID; every inactive cluster
    that (directly or via relay) received an ID merges into it.  Returns
    the number of merges.
    """
    senders = np.flatnonzero(cl.active_member_mask())
    outcome = cluster_push(sim, cl, senders=senders, reduce=reduce, label=label)
    # Only inactive clusters merge; active clusters ignore receipts.
    new_leader = np.where(cl.active, NOTHING, outcome.leader_receipt)
    # Guard against an inactive cluster "merging" into another inactive
    # cluster: receipts can only carry active-cluster IDs (only active
    # clusters pushed), so statically this is just an assertion of that
    # fact.  Under a dynamics timeline a recruiter can crash *after*
    # pushing its ID — such receipts are stale, and the receiver simply
    # drops them (the merge offer expired with the cluster).
    held = new_leader != NOTHING
    if held.any() and not cl.active[new_leader[held]].all():
        if not cl.liveness_changed:
            raise RuntimeError("merge target is not an active cluster")
        stale = np.flatnonzero(held)[~cl.active[new_leader[held]]]
        new_leader[stale] = NOTHING
    return cluster_merge(sim, cl, new_leader)


def _ensure_some_active(cl: Clustering, sim: Simulator) -> None:
    """Safety net for the w.h.p. event "at least one cluster activates".

    At laptop ``n`` with few clusters the (1 - 1/s)^k miss probability is
    not negligible; the paper's remedy would be retrying the activation
    (another O(1) rounds).  We deterministically promote the smallest-ID
    cluster instead, which is what the retry converges to, and account one
    extra activation round.
    """
    leaders = cl.leaders()
    if len(leaders) == 0 or cl.active[leaders].any():
        return
    cl.active[sim.net.min_uid_index(leaders)] = True
    sim.idle_round("ClusterActivate:retry")


def square_clusters_v1(
    sim: Simulator,
    cl: Clustering,
    params: Cluster1Params,
) -> SquareReport:
    """Algorithm 1, Procedure SquareClusters (min-ID merges)."""
    history: List[int] = []
    with sim.metrics.phase("square"):
        s = params.min_cluster_size
        cluster_dissolve(sim, cl, s)
        iterations = 0
        while s <= params.square_target:
            cluster_resize(sim, cl, s)
            cluster_activate(sim, cl, 1.0 / s)
            _ensure_some_active(cl, sim)
            for _ in range(2):
                _recruit_inactive(sim, cl, reduce="min", label="SquarePush")
            s = params.square_step(s)
            iterations += 1
            history.append(s)
            if sim.records_events:
                sim.emit("square.iter", s=s, **_counts(cl))
    return SquareReport(iterations, s, history)


def square_clusters_v2(
    sim: Simulator,
    cl: Clustering,
    params: Cluster2Params,
    *,
    stop_at: float = None,
) -> SquareReport:
    """Algorithm 2, Procedure SquareClusters (random-ID merges).

    ``stop_at`` overrides the squaring target — Cluster3 reuses this
    procedure but stops at ``sqrt(Δ log n)/C''`` (Algorithm 4 line 2).
    """
    target = params.square_target if stop_at is None else stop_at
    history: List[int] = []
    with sim.metrics.phase("square"):
        s = params.square_floor
        cluster_dissolve(sim, cl, params.dissolve_floor)
        iterations = 0
        while s <= target:
            cluster_resize(sim, cl, s)
            cluster_activate(sim, cl, 1.0 / s)
            _ensure_some_active(cl, sim)
            for _ in range(2):
                _recruit_inactive(sim, cl, reduce="any", label="SquarePush")
            s = params.square_step(s)
            iterations += 1
            history.append(s)
            if sim.records_events:
                sim.emit("square.iter", s=s, **_counts(cl))
    return SquareReport(iterations, s, history)


def _counts(cl: Clustering) -> dict:
    return {
        "clusters": cl.cluster_count(),
        "clustered": cl.clustered_count(),
    }
