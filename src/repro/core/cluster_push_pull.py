"""ClusterPUSH-PULL(Δ) — broadcast over a Δ-clustering (Algorithm 3).

Given a Θ(Δ)-clustering, a cluster acts as a super-node with Θ(Δ) parallel
channels: once informed, its members push the rumor to Θ(Δ) random nodes in
one round, so the informed population multiplies by ~Δ per iteration
(instead of the factor-2 of plain gossip) and saturates in
``Theta(log n / log Δ)`` iterations; a final PULL catches the tail —
every uninformed node sits in a cluster of ``Δ = log^{ω(1)} n`` members,
one of whom pulls the rumor w.h.p. (Lemma 17).

Per iteration: newly informed clusters ClusterPUSH the rumor; ClusterShare
spreads it within clusters that were hit; uninformed nodes PULL from a
random node.  Our implementation spends 4 engine rounds per iteration
(push, share-up, share-down, pull) versus the paper's folded 3; a constant
factor, noted in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.clustering import Clustering
from repro.core.constants import LAPTOP, Profile, PushPullParams
from repro.core.primitives import cluster_share_rumor
from repro.core.result import AlgorithmReport, report_from_sim
from repro.registry import register_algorithm
from repro.sim.engine import Simulator


def cluster_push_pull(
    sim: Simulator,
    cl: Clustering,
    source: int = 0,
    *,
    delta: int,
    profile: Profile = LAPTOP,
    params: Optional[PushPullParams] = None,
) -> AlgorithmReport:
    """Broadcast the rumor from ``source`` over an existing Δ-clustering.

    ``cl`` is typically the output of :func:`repro.core.cluster3.cluster3`
    on the same simulator; metrics accumulate onto ``sim``.
    """
    p = params if params is not None else profile.push_pull(sim.net.n, delta)
    n = sim.net.n
    rumor_bits = sim.net.sizes.rumor_bits

    informed = np.zeros(n, dtype=bool)
    if sim.net.alive[source]:
        informed[source] = True

    with sim.metrics.phase("cpp-seed-share"):
        informed = cluster_share_rumor(sim, cl, informed)

    leader_informed_prev = np.zeros(n, dtype=bool)
    iterations_used = 0
    with sim.metrics.phase("cpp-main"):
        for iteration in range(p.main_iterations):
            if bool(informed[sim.net.alive].all()):
                break
            iterations_used += 1
            # Which clusters are informed now / newly informed this round?
            lead = cl.leaders()
            leader_informed = np.zeros(n, dtype=bool)
            leader_informed[lead] = informed[lead]
            newly = leader_informed & ~leader_informed_prev
            leader_informed_prev = leader_informed | leader_informed_prev

            # Newly informed clusters ClusterPUSH the rumor.
            members = np.flatnonzero(cl.clustered_mask())
            senders = members[newly[cl.follow[members]]]
            dsts = sim.random_targets(senders)
            with sim.round("CPP:push") as r:
                delivery = r.push(senders, dsts, rumor_bits)
            informed[delivery.dsts] = True

            # ClusterShare: clusters hit by a push become fully informed.
            informed = cluster_share_rumor(sim, cl, informed)

            # Uninformed nodes PULL from a random node (ClusterPULL: their
            # success is shared with the cluster at the next ClusterShare).
            pullers = np.flatnonzero(~informed & sim.net.alive)
            pdsts = sim.random_targets(pullers)
            with sim.round("CPP:pull") as r:
                answered = r.pull(pullers, pdsts, rumor_bits, informed[pdsts]).answered
            informed[pullers[answered]] = True

            if sim.records_events:
                sim.emit(
                    "cpp.iter",
                    iteration=iteration,
                    informed=int(informed[sim.net.alive].sum()),
                )

    with sim.metrics.phase("cpp-final-share"):
        informed = cluster_share_rumor(sim, cl, informed)

    return report_from_sim(
        "cluster-push-pull",
        sim,
        informed,
        delta=delta,
        clustering=cl,
        main_iterations=iterations_used,
    )


def cluster3_broadcast(
    sim: Simulator,
    delta: int,
    source: int = 0,
    *,
    profile: Profile = LAPTOP,
) -> AlgorithmReport:
    """Theorem 4 end-to-end: Cluster3(Δ) then ClusterPUSH-PULL(Δ).

    One report covering both stages (phases carry the breakdown); extras
    include the Δ-clustering report for the Theorem 18 assertions.
    """
    from repro.core.cluster3 import cluster3  # local import to avoid cycle

    cl, delta_report = cluster3(sim, delta, profile=profile)
    report = cluster_push_pull(sim, cl, source, delta=delta, profile=profile)
    report.algorithm = "cluster3+push-pull"
    report.extras["delta_report"] = delta_report
    report.extras["delta"] = delta
    return report


@register_algorithm(
    "cluster3",
    category="core",
    uses_profile=True,
    kwargs=("delta",),
    doc="Algorithm 4 + 3: Θ(Δ)-clustering then Δ-bounded broadcast.",
)
def cluster3_gossip(
    sim: Simulator,
    source: int = 0,
    *,
    profile: Profile = LAPTOP,
    delta: Optional[int] = None,
) -> AlgorithmReport:
    """Registry entry point for ``cluster3``: defaults ``Δ ≈ sqrt(n)``,
    raised to the profile's ``Δ = log^{ω(1)} n`` regime floor (Cluster3
    needs its Θ(Δ) target size to dominate the grow phase's polylog
    cluster sizes, which ``sqrt(n)`` alone undershoots at small ``n``).
    """
    if delta is None:
        n = sim.net.n
        delta = max(8, int(round(n**0.5)))
        probe = profile.cluster3(n, delta)
        c_resize = max(1, round(delta / max(probe.target_size, 1)))
        delta = max(delta, c_resize * profile.cluster2(n).big_size)
    return cluster3_broadcast(sim, delta, source, profile=profile)
