"""UnclusteredNodesPull and BoundedClusterPush (Sections 4.1, 5.1).

:func:`unclustered_nodes_pull` — the classic doubly-exponential PULL
endgame (Lemma 8): each unclustered node pulls a random node per round and
joins the cluster it hears about; the unclustered fraction ``x`` squares
(``x -> ~2x^2``) per round, so ``Theta(log log n)`` rounds finish from any
constant (or ``1/polylog``) deficit.

:func:`bounded_cluster_push` — Cluster2's trick for message-optimality
(Algorithm 2, lines 28-35): before the PULL endgame, the single giant
cluster PUSH-recruits until it stops growing by 1.1x, which takes it to a
constant fraction of the network.  With that many clustered nodes, each
remaining unclustered node expects O(1) PULL attempts, so the endgame
costs O(n) messages instead of the O(n log log n) of unclustered nodes
pulling each other.  Cluster3 reuses this with a continuous
``ClusterResize`` to keep every cluster — and so every leader's fan-in —
at Θ(Δ) (Algorithm 4, lines 11-19).
"""

from __future__ import annotations

from typing import Optional

from repro.core.clustering import Clustering
from repro.core.primitives import (
    cluster_activate_all,
    cluster_resize,
    cluster_size,
    grow_push_round,
    unclustered_pull_round,
)
from repro.sim.engine import Simulator


def unclustered_nodes_pull(
    sim: Simulator,
    cl: Clustering,
    rounds: int,
    *,
    resize_to: Optional[int] = None,
) -> int:
    """Algorithm 1, Procedure UnclusteredNodesPull.

    Runs exactly ``rounds`` PULL rounds (the paper's fixed
    ``Theta(log log n)`` schedule), stopping early only when nobody is left
    unclustered.  With ``resize_to`` (Cluster3), every pull round is
    followed by a ``ClusterResize`` so popular clusters cannot balloon past
    ``2 * resize_to`` before the final normalisation — the paper waves this
    off as "grows by at most a small constant", which at laptop scale can
    exceed the Δ budget.  Returns the number of still-unclustered alive
    nodes.
    """
    with sim.metrics.phase("pull"):
        for _ in range(rounds):
            remaining = len(cl.unclustered())
            if remaining == 0:
                break
            joined = unclustered_pull_round(sim, cl)
            if resize_to is not None and joined:
                cluster_resize(sim, cl, resize_to)
            if sim.records_events:
                sim.emit(
                    "pull.round",
                    joined=joined,
                    unclustered=len(cl.unclustered()),
                )
    return len(cl.unclustered())


def bounded_cluster_push(
    sim: Simulator,
    cl: Clustering,
    *,
    growth_stop: float,
    rounds_cap: int,
    resize_to: Optional[int] = None,
) -> None:
    """Algorithm 2 Procedure BoundedClusterPush (and Algorithm 4's variant).

    All clusters activate and PUSH-recruit unclustered nodes each round,
    measuring their growth via ClusterSize; a cluster that grows by less
    than ``growth_stop`` (1.1 in the paper) deactivates.  With
    ``resize_to`` set (Cluster3), every round starts with a
    ``ClusterResize(resize_to)`` so clusters never exceed ``2*resize_to``
    members no matter how fast they recruit.
    """
    with sim.metrics.phase("bounded-push"):
        cluster_activate_all(sim, cl)
        prev = cl.clustered_count() if sim.records_events else 0
        for _ in range(rounds_cap):
            leaders = cl.leaders()
            if len(leaders) == 0 or not cl.active[leaders].any():
                break
            if resize_to is not None:
                cluster_resize(sim, cl, resize_to)
            sizes_before = cl.sizes().astype(float)
            grow_push_round(sim, cl, active_only=True, label="BoundedPush")
            sizes_after = cluster_size(sim, cl).astype(float)
            leaders = cl.leaders()
            grew = sizes_after[leaders] / sizes_before.clip(min=1.0)[leaders]
            stalled = grew < growth_stop
            cl.active[leaders[stalled]] = False
            if sim.records_events:
                clustered = cl.clustered_count()
                sim.emit(
                    "bounded-push.round",
                    clustered=clustered,
                    gained=clustered - prev,
                    active=int(cl.active[cl.leaders()].sum()),
                )
                prev = clustered
        cl.active[:] = False
