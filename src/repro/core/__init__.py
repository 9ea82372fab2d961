"""The paper's contribution: clusterings and the Cluster1/2/3 algorithms.

Layout mirrors the paper:

* :mod:`repro.core.clustering` / :mod:`repro.core.primitives` — Section 3
  (clusterings and the eight cluster coordination macros);
* :mod:`repro.core.phases` — the phase procedures shared by the
  algorithms, written once for both tiers: the sequential backend and
  the ``(R, n)`` :class:`~repro.sim.batch_cluster.ClusterBatch`;
* :mod:`repro.core.cluster1` — Algorithm 1 (Section 4);
* :mod:`repro.core.cluster2` — Algorithm 2 (Section 5);
* :mod:`repro.core.cluster3` — Algorithm 4, Θ(Δ)-clustering (Section 7);
* :mod:`repro.core.cluster_push_pull` — Algorithm 3 (Section 7);
* :mod:`repro.core.lower_bound` — the Ω(log log n) bound (Section 6);
* :mod:`repro.core.broadcast` — the public one-call API.
"""

from repro.core.broadcast import BroadcastResult, broadcast
from repro.core.clustering import UNCLUSTERED, Clustering
from repro.core.constants import LAPTOP, PAPER, Profile
from repro.core.estimate_n import EstimateReport, guess_test_and_double

__all__ = [
    "BroadcastResult",
    "Clustering",
    "EstimateReport",
    "LAPTOP",
    "PAPER",
    "Profile",
    "UNCLUSTERED",
    "broadcast",
    "guess_test_and_double",
]
