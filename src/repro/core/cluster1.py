"""Cluster1 — the simple O(log log n)-round gossip algorithm (Algorithm 1).

The phase recipe (paper, Section 4.1):

1. **GrowInitialClusters** — seed a ``1/(C log n)`` fraction of nodes as
   singleton clusters, PUSH-recruit for ``Theta(log log n)`` rounds; ~90%
   of nodes end up in clusters of size ``>= C' log n`` (Lemma 5).
2. **SquareClusters** — repeatedly square the cluster size via
   activate-(1/s) + two PUSH/merge repetitions until ``s > sqrt(n/log n)``
   (Lemma 6).
3. **MergeAllClusters** — two PUSH/min-merge repetitions coalesce all
   clusters into the smallest-ID one (Lemma 7).
4. **UnclusteredNodesPull** — the remaining unclustered nodes PULL their
   way in within ``Theta(log log n)`` rounds (Lemma 8).
5. **ClusterShare(message)** — the rumor reaches everyone through the one
   cluster (Theorem 9).

Not message-optimal (a constant fraction of nodes transmits most rounds) —
that is Cluster2's job.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.clustering import Clustering
from repro.core.constants import LAPTOP, Cluster1Params, Profile
from repro.core.phases import SequentialBackend, cluster1_phases, share
from repro.core.result import AlgorithmReport, report_from_sim
from repro.registry import (
    register_algorithm,
    register_batch_runner,
    register_task_transport,
)
from repro.sim.batch_cluster import batched_cluster1
from repro.sim.engine import Simulator
from repro.tasks.transports import run_cluster_task


@register_algorithm(
    "cluster1",
    category="core",
    uses_profile=True,
    kwargs=("params",),
    doc="Algorithm 1: simple O(log log n)-round clustered gossip.",
)
def cluster1(
    sim: Simulator,
    source: int = 0,
    *,
    profile: Profile = LAPTOP,
    params: Optional[Cluster1Params] = None,
) -> AlgorithmReport:
    """Run Cluster1 and broadcast the rumor held by ``source``.

    Parameters
    ----------
    sim:
        A fresh simulator (its metrics must be empty).
    source:
        The node initially holding the rumor.
    profile:
        Constant resolution (:data:`~repro.core.constants.LAPTOP` default).
    params:
        Explicit parameter override (ignores ``profile``).
    """
    p = params if params is not None else profile.cluster1(sim.net.n)
    cl = Clustering(sim.net)
    if sim.telemetry is not None:
        sim.telemetry.add_probe("clusters", lambda s, cl=cl: float(cl.cluster_count()))

    b = SequentialBackend(sim, cl)
    square_report, merge_reps = cluster1_phases(b, p)

    informed = np.zeros((1, sim.net.n), dtype=bool)
    informed[0, source] = sim.net.alive[source]
    informed = share(b, informed)[0]

    if sim.records_events:
        sim.emit("done", clusters=cl.cluster_count())
    return report_from_sim(
        "cluster1",
        sim,
        informed,
        clustering=cl,
        square_iterations=square_report.iterations,
        merge_reps=merge_reps,
        final_clusters=cl.cluster_count(),
    )


@register_task_transport("cluster1")
def cluster1_task_transport(
    sim: Simulator,
    state,
    *,
    profile: Profile = LAPTOP,
    params: Optional[Cluster1Params] = None,
) -> AlgorithmReport:
    """Cluster1's structure as a task transport: the simple construction
    (grow → square → merge → pull) assembles the spanning cluster, then
    the generic gather/mix/scatter/catch-up pipeline of
    :func:`repro.tasks.transports.run_cluster_task` computes the task
    over it."""
    p = params if params is not None else profile.cluster1(sim.net.n)

    def build(sim: Simulator, cl: Clustering) -> None:
        cluster1_phases(SequentialBackend(sim, cl), p)

    return run_cluster_task(sim, state, build)


# The scale tier's (R, n) vectorisation of this algorithm (statistically
# validated against this module's sequential path, which stays the
# fingerprint reference).
register_batch_runner("cluster1")(batched_cluster1)
