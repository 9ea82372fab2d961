"""Cluster3(Δ) — computing a Θ(Δ)-clustering (Algorithm 4, Section 7).

Direct addressing lets one node answer up to ``n-1`` requests per round;
Section 7 studies capping that fan-in at ``Δ``.  Cluster3 computes a
*Δ-clustering* — every node clustered, all cluster sizes Θ(Δ) — in
``O(log log n)`` rounds and O(n) messages while never having a node talk to
more than Δ peers in a round (Theorem 18).  The clustering is then the
substrate for :mod:`repro.core.cluster_push_pull`'s
``O(log n / log Δ)``-round broadcast, matching the Lemma 16 lower bound.

Recipe: Cluster2's grow and square phases, stopped early at size
``sqrt(Δ log n)/C''`` — then one activate/push/random-merge round lifts
sizes to ``Θ(Δ/C'')`` (Procedure MergeClusters), BoundedClusterPush
recruits the unclustered majority under a continuous ClusterResize that
keeps sizes (hence leader fan-in) bounded, UnclusteredNodesPull catches
stragglers, and a final ClusterResize normalises.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.clustering import Clustering
from repro.core.constants import LAPTOP, Cluster3Params, Profile
from repro.core.phases import SequentialBackend, bounded_push, grow_v2, pull, square_v2
from repro.core.primitives import cluster_activate, cluster_merge, cluster_push, cluster_resize
from repro.sim.delivery import NOTHING
from repro.sim.engine import Simulator


@dataclass
class DeltaClusteringReport:
    """Shape of the Δ-clustering Cluster3 produced."""

    delta: int
    target_size: int
    clusters: int
    min_size: int
    max_size: int
    unclustered: int
    rounds: int
    messages: int
    max_fanin: int

    @property
    def all_clustered(self) -> bool:
        return self.unclustered == 0


def merge_to_delta_clusters(
    sim: Simulator,
    cl: Clustering,
    params: Cluster3Params,
    current_size: int,
) -> None:
    """Algorithm 4, Procedure MergeClusters.

    Instead of coalescing to one cluster, activate clusters with
    probability ``merge_activate_coeff * s / target_size`` (paper:
    ``10 s / (Δ/C'')``) and have inactive clusters join a *uniformly
    random* received active ID, which spreads them evenly: roughly one
    cluster in ``target_size/(10 s)`` becomes a recruiter and grows to
    ``~target_size/10``, within a constant of the Θ(Δ) target, which
    BoundedClusterPush and the final resize then normalise.
    ``current_size`` is the nominal cluster size ``s`` reached by
    SquareClusters.
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


def cluster3(
    sim: Simulator,
    delta: int,
    *,
    profile: Profile = LAPTOP,
    params: Optional[Cluster3Params] = None,
) -> "tuple[Clustering, DeltaClusteringReport]":
    """Compute a Θ(Δ)-clustering (Algorithm 4).

    Requires ``delta >= 8`` (the paper assumes ``Δ = log^{ω(1)} n``; below
    ~8 the Θ(Δ) size bands collapse) and ``delta <= n**0.9`` (Section 7's
    convention — for larger Δ just run Cluster2).
    """
    n = sim.net.n
    if delta < 8:
        raise ValueError(f"delta must be >= 8, got {delta}")
    if delta > int(n**0.9):
        raise ValueError(
            f"delta={delta} too large for n={n}; use Cluster2 instead (paper §7)"
        )
    p3 = params if params is not None else profile.cluster3(n, delta)
    p2 = profile.cluster2(n)
    # The paper requires Δ = log^{ω(1)} n: Δ must dominate the polylog
    # cluster sizes of the grow phase, else their coordination fan-in
    # already exceeds Δ.  The laptop-scale analogue of that regime floor:
    if p3.target_size < p2.big_size:
        min_delta = int(math.ceil(delta / max(p3.target_size, 1)) * p2.big_size)
        raise ValueError(
            f"delta={delta} is below the Δ = log^ω(1) n regime for n={n}: "
            f"need Δ/C'' = {p3.target_size} >= grow-phase cluster size "
            f"{p2.big_size} (use delta >= {min_delta})"
        )
    cl = Clustering(sim.net)
    if sim.telemetry is not None:
        sim.telemetry.add_probe("clusters", lambda s, cl=cl: float(cl.cluster_count()))

    b = SequentialBackend(sim, cl)
    grow_v2(b, p2)
    square_report = square_v2(b, p2, stop_at=p3.square_until)
    # Nominal size reached by the squaring loop (>= its floor even when the
    # loop body never ran because the floor already exceeded the target).
    s = max(p2.square_floor, square_report.final_nominal_size)
    s = min(s, max(2, p3.target_size))  # never activate with prob > ~1

    merge_to_delta_clusters(sim, cl, p3, s)
    bounded_push(
        b,
        growth_stop=p3.bounded_push_growth_stop,
        rounds_cap=p3.bounded_push_rounds_cap,
        resize_to=p3.target_size,
    )
    pull(b, p3.pull_rounds, resize_to=p3.target_size)
    with sim.metrics.phase("final-resize"):
        cluster_resize(sim, cl, p3.target_size)

    report = delta_clustering_report(sim, cl, p3)
    if sim.records_events:
        sim.emit(
            "cluster3.done",
            clusters=report.clusters,
            min_size=report.min_size,
            max_size=report.max_size,
            unclustered=report.unclustered,
        )
    return cl, report


def delta_clustering_report(
    sim: Simulator, cl: Clustering, params: Cluster3Params
) -> DeltaClusteringReport:
    """Measure the clustering against the Θ(Δ) definition."""
    leaders = cl.leaders()
    sizes = cl.sizes()[leaders] if len(leaders) else np.zeros(0, dtype=np.int64)
    return DeltaClusteringReport(
        delta=params.delta,
        target_size=params.target_size,
        clusters=int(len(leaders)),
        min_size=int(sizes.min()) if len(sizes) else 0,
        max_size=int(sizes.max()) if len(sizes) else 0,
        unclustered=int(len(cl.unclustered())),
        rounds=sim.metrics.rounds,
        messages=sim.metrics.messages,
        max_fanin=sim.metrics.max_fanin,
    )
