"""Reconstruction of Avin & Elsässer [1] (DISC 2013): Theta(sqrt(log n)).

[1] is the prior state of the art this paper improves on (its Theorem 1):
``O(sqrt(log n))`` rounds using ``O(sqrt(log n))`` messages per node and
``O(n log^{3/2} n + n b log log n)`` bits, in the same random-phone-call
model with direct addressing.  The companion paper's full pseudocode is not
part of our source, so — per the substitution rule (DESIGN.md §5.2) — we
implement a *reconstruction with the same complexity profile* built from
this paper's own cluster machinery:

Groups recruit groups as in SquareClusters, but where Cluster1's
constant-size ClusterResize messages allow unbounded squaring
(``s -> s^2``), [1]'s coordination messages carry only
``k = ceil(sqrt(log2 n))`` IDs; we model that budget by letting each
active cluster direct at most ``g = 2^k`` of its members to recruit per
iteration, capping the growth factor at ``g + 1``.  Group size then needs

    ``log2(n) / log2(g+1)  ~  sqrt(log n)``

iterations to reach ``n``, and every clustered node spends O(1)
coordination messages per iteration — ``Theta(sqrt(log n))`` messages per
node, with ``id_bits``-sized messages giving the ``n log^{3/2} n`` bit
term and the final rumor share the ``n b`` term.  This sits exactly at
Theorem 1's trade-off point, between plain gossip's ``Theta(log n)`` and
Cluster1/2's ``Theta(log log n)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.clustering import Clustering
from repro.core.constants import LAPTOP, Profile
from repro.core.phases import SequentialBackend, grow_v1, merge_all, pull, share
from repro.core.primitives import (
    cluster_activate,
    cluster_dissolve,
    cluster_merge,
    cluster_push,
    cluster_resize,
)
from repro.core.result import AlgorithmReport, report_from_sim
from repro.registry import register_algorithm
from repro.sim.delivery import NOTHING
from repro.sim.engine import Simulator


def default_capacity(n: int) -> int:
    """``k = ceil(sqrt(log2 n))`` — the ID budget per message in [1]."""
    return math.ceil(math.sqrt(math.log2(max(n, 4))))


def ae_round_estimate(n: int) -> int:
    """The ``k + log n / k`` round shape of the reconstruction."""
    k = default_capacity(n)
    return k + math.ceil(math.log2(max(n, 2)) / k)


def _capped_active_senders(cl: Clustering, cap: int) -> np.ndarray:
    """Up to ``cap`` members per active cluster (smallest uids first).

    The leader's recruiting directive can designate at most ``cap``
    members; uid order is a deterministic choice every member computes
    locally from the membership it saw at the last resize.
    """
    members, starts = cl.by_cluster(np.flatnonzero(cl.active_member_mask()))
    block = np.diff(starts, append=len(members))
    rank = np.arange(len(members)) - np.repeat(starts, block)
    return members[rank < cap]


@register_algorithm(
    "avin-elsasser",
    category="baseline",
    uses_profile=True,
    kwargs=("message_capacity",),
    doc="Avin–Elsässer [1] reconstruction: Θ(√log n) rounds and msgs.",
)
def avin_elsasser(
    sim: Simulator,
    source: int = 0,
    *,
    profile: Profile = LAPTOP,
    message_capacity: int = None,
) -> AlgorithmReport:
    """Run the Theta(sqrt(log n)) reconstruction.

    Its initial clusters grow with ``profile``'s Cluster1 constants.
    ``message_capacity`` overrides ``k`` (tests use it to confirm the
    trade-off: ``k = 1`` degenerates towards ``Theta(log n)`` doubling,
    large ``k`` approaches the uncapped squaring of Cluster1).
    """
    n = sim.net.n
    k = message_capacity if message_capacity is not None else default_capacity(n)
    if k < 1:
        raise ValueError(f"message capacity must be >= 1, got {k}")
    g = 2**k

    # Phase 1: seed and grow initial clusters exactly as Cluster1 does
    # (this part of the machinery predates the squaring trick).
    p1 = profile.cluster1(n)
    cl = Clustering(sim.net)
    b = SequentialBackend(sim, cl)
    grow_v1(b, p1)

    # Phase 2: capped group growth.  Like SquareClusters, but each active
    # cluster may direct only min(s, g) recruiters per iteration.
    uid = sim.net.uid
    with sim.metrics.phase("ae-capped-growth"):
        s = p1.min_cluster_size
        cluster_dissolve(sim, cl, s)
        safety = 3 * ae_round_estimate(n) + 8
        iterations = 0
        while s < n / 4 and cl.cluster_count() > 1 and iterations < safety:
            iterations += 1
            cluster_resize(sim, cl, s)
            grow = min(s, g)
            cluster_activate(sim, cl, 1.0 / (grow + 1.0))
            leaders = cl.leaders()
            if len(leaders) and not cl.active[leaders].any():
                cl.active[sim.net.min_uid_index(leaders)] = True
            for _ in range(2):
                senders = _capped_active_senders(cl, grow)
                outcome = cluster_push(
                    sim, cl, senders=senders, reduce="min", label="AEPush"
                )
                new_leader = np.where(cl.active, NOTHING, outcome.leader_receipt)
                keep = (new_leader != NOTHING) & cl.active[
                    np.maximum(new_leader, 0)
                ]
                new_leader = np.where(keep, new_leader, NOTHING)
                cluster_merge(sim, cl, new_leader)
            s = max(s + 1, (s * (grow + 1)) // 2)
            if sim.records_events:
                sim.emit(
                    "ae.iter",
                    nominal_size=s,
                    clusters=cl.cluster_count(),
                    clustered=cl.clustered_count(),
                )

    merge_all(b, reps=4)
    pull(b, p1.pull_rounds)

    informed = np.zeros((1, n), dtype=bool)
    informed[0, source] = sim.net.alive[source]
    informed = share(b, informed)[0]

    return report_from_sim(
        "avin-elsasser",
        sim,
        informed,
        message_capacity=k,
        growth_cap=g,
        clustering=cl,
    )
