"""MergeAllClusters / MergeClusters — the final coalescing (Sections 4.1, 7).

:func:`merge_all_clusters` (Algorithms 1/2): every cluster ClusterPUSHes
its ID; every cluster merges into the smallest ID it received.  The
globally smallest-ID cluster never merges and absorbs everything; the
paper's "two repetitions" suffice w.h.p. asymptotically, and we allow a
small capped number of extra repetitions for small-``n`` tail events
(counted — they keep the round-complexity O(1) for this phase; DESIGN.md
substitution 4).

:func:`merge_to_delta_clusters` (Algorithm 4, Procedure MergeClusters):
instead of coalescing to one cluster, activate clusters with probability
``10 s / (Δ/C'')`` and have inactive clusters join a *uniformly random*
received active ID, which spreads them evenly — each active cluster ends
up with ``Theta(Δ/C'' / s)`` recruits, i.e. size ``Theta(Δ/C'')``.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clustering
from repro.core.constants import Cluster3Params
from repro.core.primitives import cluster_activate, cluster_merge, cluster_push
from repro.sim.delivery import NOTHING
from repro.sim.engine import Simulator


def merge_all_clusters(
    sim: Simulator,
    cl: Clustering,
    *,
    reps: int = 2,
) -> int:
    """Algorithms 1/2, Procedure MergeAllClusters.

    Returns the number of repetitions actually used (2 w.h.p.; up to
    ``reps`` at small n — extra repetitions only run while more than one
    cluster remains).
    """
    uid = sim.net.uid
    used = 0
    mandatory = min(2, max(1, reps))  # the paper's "two repetitions"
    with sim.metrics.phase("merge-all"):
        for rep in range(max(1, reps)):
            if rep >= mandatory and cl.cluster_count() <= 1:
                break
            used += 1
            senders = np.flatnonzero(cl.clustered_mask())
            outcome = cluster_push(
                sim, cl, senders=senders, reduce="min", label="MergeAllPush"
            )
            # Merge towards strictly smaller uids only: acyclic by
            # construction, and the smallest-ID cluster stays put.
            leaders = cl.leaders()
            receipt = outcome.leader_receipt
            new_leader = np.full(cl.n, NOTHING, dtype=np.int64)
            got = leaders[receipt[leaders] != NOTHING]
            better = got[uid[receipt[got]] < uid[got]]
            new_leader[better] = receipt[better]
            merged = cluster_merge(sim, cl, new_leader)
            if sim.records_events:
                sim.emit(
                    "merge-all.rep",
                    rep=rep,
                    merged=merged,
                    clusters=cl.cluster_count(),
                )
    return used


def merge_to_delta_clusters(
    sim: Simulator,
    cl: Clustering,
    params: Cluster3Params,
    current_size: int,
) -> None:
    """Algorithm 4, Procedure MergeClusters.

    ``current_size`` is the nominal cluster size ``s`` reached by
    SquareClusters; activation probability is
    ``merge_activate_coeff * s / target_size`` (paper: ``10 s / (Δ/C'')``),
    so roughly one cluster in ``target_size/(10 s)`` becomes a recruiter
    and grows to ``~target_size/10`` — within a constant of the Θ(Δ)
    target, which BoundedClusterPush and the final resize then normalise.
    """
    with sim.metrics.phase("merge-delta"):
        p = min(1.0, params.merge_activate_coeff * current_size / params.target_size)
        cluster_activate(sim, cl, p)
        leaders = cl.leaders()
        if len(leaders) and not cl.active[leaders].any():
            cl.active[sim.net.min_uid_index(leaders)] = True
        senders = np.flatnonzero(cl.active_member_mask())
        outcome = cluster_push(
            sim, cl, senders=senders, reduce="any", label="MergeDeltaPush"
        )
        new_leader = np.where(cl.active, NOTHING, outcome.leader_receipt)
        cluster_merge(sim, cl, new_leader)
        if sim.records_events:
            sim.emit(
                "merge-delta",
                activate_prob=round(p, 4),
                clusters=cl.cluster_count(),
            )
