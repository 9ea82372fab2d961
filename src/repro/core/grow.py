"""GrowInitialClusters — seeding and PUSH-recruiting (Sections 4.1, 5.1).

Two variants:

* :func:`grow_initial_clusters_v1` (Algorithm 1, lines 6-10): sample a
  ``1/(C log n)`` fraction of nodes as singleton clusters, then run
  ``Theta(log log n)`` rounds of PUSH gossip in which unclustered receivers
  join a random pushing cluster.  Ends with ~90% of nodes clustered in
  clusters of size ``>= C' log n`` (Lemma 5) — message-hungry but simple.

* :func:`grow_initial_clusters_v2` (Algorithm 2, lines 7-17): sample far
  fewer seeds, *measure growth* each iteration (ClusterSize), deactivate a
  cluster once it is big and its growth factor dips below ``2 - 1/log n``
  (the signature that a ``Theta(target_fraction)`` share of the network is
  clustered — Lemmas 10/11), and ClusterResize big clusters so no leader
  talks to too many followers.  Ends with only a ``Theta(x*)`` fraction
  clustered, which is what caps Cluster2's total message count.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clustering
from repro.core.constants import Cluster1Params, Cluster2Params
from repro.core.primitives import (
    cluster_activate_all,
    cluster_resize,
    cluster_size,
    grow_push_round,
)
from repro.sim.engine import Simulator


def seed_singleton_clusters(sim: Simulator, cl: Clustering, prob: float) -> int:
    """Algorithm 1 line 7 / Algorithm 2 line 8: each node independently
    becomes a singleton cluster with probability ``prob`` (a local coin —
    no communication round).  Returns the number of seeds."""
    if not 0.0 < prob <= 1.0:
        raise ValueError(f"seed probability must be in (0,1], got {prob}")
    coins = sim.rng.random(cl.n) < prob
    seeds = np.flatnonzero(coins & sim.net.alive)
    if len(seeds) == 0:
        # Tail event (prob (1-p)^n); fall back to one deterministic seed so
        # the algorithm remains well-defined, as a leader election would.
        seeds = sim.net.alive_indices()[:1]
    cl.seed_singletons(seeds)
    cl.active[seeds] = True
    return int(len(seeds))


def grow_initial_clusters_v1(
    sim: Simulator,
    cl: Clustering,
    params: Cluster1Params,
) -> None:
    """Algorithm 1, Procedure GrowInitialClusters."""
    with sim.metrics.phase("grow"):
        seeds = seed_singleton_clusters(sim, cl, params.seed_prob)
        if sim.records_events:
            sim.emit("grow.seeded", seeds=seeds)
        for _ in range(params.grow_rounds):
            joined = grow_push_round(sim, cl, active_only=False)
            if sim.records_events:
                sim.emit("grow.push", joined=joined, clustered=cl.clustered_count())


def grow_initial_clusters_v2(
    sim: Simulator,
    cl: Clustering,
    params: Cluster2Params,
) -> None:
    """Algorithm 2, Procedure GrowInitialClusters (size-controlled)."""
    with sim.metrics.phase("grow"):
        seeds = seed_singleton_clusters(sim, cl, params.seed_prob)
        cluster_activate_all(sim, cl)
        if sim.records_events:
            sim.emit("grow.seeded", seeds=seeds)

        prev_sizes = cl.sizes().astype(np.float64)
        for _ in range(params.grow_rounds_cap):
            if not cl.active[cl.leaders()].any():
                break
            grow_push_round(sim, cl, active_only=True)
            sizes = cluster_size(sim, cl).astype(np.float64)

            leaders = cl.leaders()
            big = sizes[leaders] >= params.big_size
            grew = sizes[leaders] / np.maximum(prev_sizes[leaders], 1.0)
            stalled = big & (grew < params.growth_stop_factor)
            cl.active[leaders[stalled]] = False
            # Big clusters still growing get split so no cluster (and no
            # leader's fan-in) runs away (Algorithm 2 line 17).
            if (big & ~stalled).any():
                cluster_resize(sim, cl, params.big_size)
                sizes = cl.sizes().astype(np.float64)
            prev_sizes = sizes
            if sim.records_events:
                sim.emit(
                    "grow.push",
                    clustered=cl.clustered_count(),
                    clusters=cl.cluster_count(),
                    active=int(cl.active[cl.leaders()].sum()),
                    stalled=int(stalled.sum()),
                )
        cl.active[:] = False
