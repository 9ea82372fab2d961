"""Shared test helpers, importable unambiguously as ``helpers``.

Lives in its own module (not ``conftest.py``) because ``conftest`` is a
name pytest also gives :file:`benchmarks/conftest.py`; with both on
``sys.path`` a ``from conftest import ...`` resolves to whichever loaded
first.  ``helpers`` exists only here.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.rng import make_rng


def build_sim(n: int, seed: int = 0, *, rumor_bits: int = 256) -> Simulator:
    """A fresh simulator with deterministic addressing and coins."""
    net = Network(n, rng=seed, rumor_bits=rumor_bits)
    return Simulator(net, make_rng(seed + 1), Metrics(n))


def manual_clustering(sim: Simulator, cluster_size: int):
    """Partition all nodes into consecutive-index clusters of a given size.

    A deterministic clustering for unit-testing primitives in isolation;
    the leader of each block is its first index.
    """
    from repro.core.clustering import Clustering

    cl = Clustering(sim.net)
    idx = np.arange(sim.net.n)
    cl.set_follow(np.s_[:], (idx // cluster_size) * cluster_size)
    cl.check_invariants()
    return cl


def members_of(cl, leader: int) -> np.ndarray:
    """Indices of the cluster led by ``leader`` (leader included)."""
    return np.flatnonzero(cl.clustered_mask() & (cl.follow == leader))


def single_cluster(cl):
    """The unique leader if exactly one cluster exists, else None."""
    lead = cl.leaders()
    return int(lead[0]) if len(lead) == 1 else None
