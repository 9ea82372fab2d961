"""Cluster2 — optimal rounds *and* messages *and* bits (Algorithm 2).

Same recipe as Cluster1 with the message-thrift modifications of
Section 5.1:

1. **GrowInitialClusters** (size-controlled) — far fewer seeds
   (``1/(C log^4 n)``); clusters measure their own growth and stop
   recruiting once big and slowing, which self-limits the clustered
   population to a ``Theta(1/log n)`` fraction (Lemma 11) so the chatty
   phases only ever involve ``o(n)`` senders per round.
2. **SquareClusters** — as Cluster1 but merging into a *random* received
   ID; growth per iteration is ``Theta(s^2/log n) = omega(s^1.5)``, still
   ``Theta(log log n)`` iterations (Lemma 12).
3. **MergeAllClusters** — unchanged (Lemma 7).
4. **BoundedClusterPush** — the giant cluster PUSH-expands to a constant
   fraction of the network, stopping at growth < 1.1 (Lemma 13); this is
   what makes the final PULL phase O(n)-message.
5. **UnclusteredNodesPull** + **ClusterShare(message)**.

Together: ``O(log log n)`` rounds, ``O(1)`` messages/node, ``O(nb)`` bits
(Theorem 2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.clustering import Clustering
from repro.core.constants import LAPTOP, Cluster2Params, Profile
from repro.core.phases import SequentialBackend, cluster2_phases, share
from repro.core.result import AlgorithmReport, report_from_sim
from repro.registry import (
    register_algorithm,
    register_batch_runner,
    register_task_transport,
)
from repro.sim.batch_cluster import batched_cluster2
from repro.sim.engine import Simulator
from repro.tasks.transports import run_cluster_task


@register_algorithm(
    "cluster2",
    category="core",
    uses_profile=True,
    kwargs=("params",),
    doc="Algorithm 2: optimal rounds, messages and bits (Theorem 2).",
)
def cluster2(
    sim: Simulator,
    source: int = 0,
    *,
    profile: Profile = LAPTOP,
    params: Optional[Cluster2Params] = None,
) -> AlgorithmReport:
    """Run Cluster2 and broadcast the rumor held by ``source``.

    See :func:`repro.core.cluster1.cluster1` for the common parameters.
    """
    p = params if params is not None else profile.cluster2(sim.net.n)
    p.check_n(sim.net.n)
    cl = Clustering(sim.net)
    if sim.telemetry is not None:
        sim.telemetry.add_probe("clusters", lambda s, cl=cl: float(cl.cluster_count()))

    b = SequentialBackend(sim, cl)
    square_report, merge_reps = cluster2_phases(b, p)

    informed = np.zeros((1, sim.net.n), dtype=bool)
    informed[0, source] = sim.net.alive[source]
    informed = share(b, informed)[0]

    if sim.records_events:
        sim.emit("done", clusters=cl.cluster_count())
    return report_from_sim(
        "cluster2",
        sim,
        informed,
        clustering=cl,
        square_iterations=square_report.iterations,
        merge_reps=merge_reps,
        final_clusters=cl.cluster_count(),
    )


@register_task_transport("cluster2")
def cluster2_task_transport(
    sim: Simulator,
    state,
    *,
    profile: Profile = LAPTOP,
    params: Optional[Cluster2Params] = None,
) -> AlgorithmReport:
    """Cluster2's structure as a task transport: the message-thrifty
    construction (grow → square → merge → bounded push → pull) assembles
    the spanning cluster, then the generic gather/mix/scatter/catch-up
    pipeline of :func:`repro.tasks.transports.run_cluster_task` computes
    the task over it."""
    p = params if params is not None else profile.cluster2(sim.net.n)
    p.check_n(sim.net.n)

    def build(sim: Simulator, cl: Clustering) -> None:
        cluster2_phases(SequentialBackend(sim, cl), p)

    return run_cluster_task(sim, state, build)


# The scale tier's (R, n) vectorisation of this algorithm (statistically
# validated against this module's sequential path, which stays the
# fingerprint reference).
register_batch_runner("cluster2")(batched_cluster2)
