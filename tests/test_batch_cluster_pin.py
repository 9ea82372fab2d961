"""Bit-for-bit pin of the vector cluster engine's outputs.

The vector runners draw a different RNG stream than the sequential
engines, so the fingerprint corpus cannot pin them and
``test_batch_cluster.py`` checks only distributions.  This file pins
them: per configuration, one sha256 over ``rounds``, ``messages``,
``bits``, ``max_fanin``, ``informed_counts`` and ``success`` (plus
``sim_time`` under a clock overlay).  Any change to what the batched
primitives compute, or to the order and sizes of their RNG draws,
changes a digest.  A deliberate change of the stream re-records them
with::

    PYTHONPATH=src python tests/test_batch_cluster_pin.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.sim.batch_cluster import batched_cluster1, batched_cluster2
from repro.sim.rng import derive_seed, make_rng
from repro.sim.schedule import EventSchedulerSpec, make_batch_overlay
from repro.sim.topology import (
    ErdosRenyiGnp,
    NodeSlowdownDelay,
    RandomRegular,
    Ring,
    resolve_topology,
)

RUNNERS = {"cluster1": batched_cluster1, "cluster2": batched_cluster2}
STRAGGLER = NodeSlowdownDelay(base=1.0, fraction=0.02, factor=10.0)
SEED = 20240611

#: (algorithm, n, reps, topology, straggler overlay)
CASES = {
    # n=1000: the non-power-of-two row/column split.
    "cluster1-complete-1000x5": ("cluster1", 1000, 5, None, False),
    "cluster2-complete-1000x5": ("cluster2", 1000, 5, None, False),
    # R=16: replications diverge, so cluster2's grow and resize rounds
    # run on subsets of the batch (the n=1000 and straggler cases also
    # pull on subsets).
    "cluster1-complete-4096x16": ("cluster1", 4096, 16, None, False),
    "cluster2-complete-4096x16": ("cluster2", 4096, 16, None, False),
    "cluster1-complete-65536x1": ("cluster1", 2**16, 1, None, False),
    "cluster2-complete-65536x1": ("cluster2", 2**16, 1, None, False),
    "cluster2-regular8-1000x5": ("cluster2", 1000, 5, RandomRegular(d=8), False),
    "cluster2-ring2-1000x5": ("cluster2", 1000, 5, Ring(k=2), False),
    "cluster2-gnp-1000x5": ("cluster2", 1000, 5, ErdosRenyiGnp(), False),
    "cluster1-straggler-4096x8": ("cluster1", 4096, 8, None, True),
    "cluster2-straggler-4096x8": ("cluster2", 4096, 8, None, True),
}

#: sha256 per case, recorded before the batched primitives were
#: rewritten to make fewer array passes (they must not change).
DIGESTS = {
    "cluster1-complete-1000x5": (
        "7ba6af776474f49afc984e167b173511c3b6fbf4ecd85a9b67b98b80bba17630"
    ),
    "cluster2-complete-1000x5": (
        "d7423eadd392d57ec0d0d6163d9f5b817a894f3a7061c47e59c19969390b10a0"
    ),
    "cluster1-complete-4096x16": (
        "41e2ca366f4a815d929ce1a2ec2bef922faab91322cd2a372d13854acdf86fcf"
    ),
    "cluster2-complete-4096x16": (
        "db07502c8ae837670a0c0ad025810efb0b4da0f809c7c5a9d1a8685bd4ba11b3"
    ),
    "cluster1-complete-65536x1": (
        "a4da9cf342259bb2c38ae6dfd5c05081adf6b8d9d161f1b34f8b8b8e6aef4db0"
    ),
    "cluster2-complete-65536x1": (
        "6c5f22fc04ed5dd796e83b36536527669d197ef5bd05cea8e27587c0c7fea355"
    ),
    "cluster2-regular8-1000x5": (
        "b706f708d0bcb521e942339545a902720aebc49972818fcf72b85c6c3025f860"
    ),
    "cluster2-ring2-1000x5": (
        "a81c59d077b3d289aee457c7267a70a96f219bea9f283834ef8a923f776af43a"
    ),
    "cluster2-gnp-1000x5": (
        "93db6601883f916c6a92fd1719452d3b86ed5feb5ad5cc7a7212bdb95a42ab59"
    ),
    "cluster1-straggler-4096x8": (
        "bf25cb04f51470d2fdf2a93b24f0a65ae228e239c818b0e955d53a9e84673b06"
    ),
    "cluster2-straggler-4096x8": (
        "bf8acd53e3d8cdbc6c699ccb8b1e0001d4346946b2c88c104f1707bac966b4dd"
    ),
}


def case_digest(name: str) -> str:
    algorithm, n, reps, topology, straggler = CASES[name]
    graph = None
    if topology is not None:
        graph = topology.bind(n, make_rng(derive_seed(SEED, "net")))
    overlay = None
    if straggler:
        overlay = make_batch_overlay(
            EventSchedulerSpec(delay=STRAGGLER),
            resolve_topology(topology),
            n,
            reps,
            graph,
            base_seed=SEED,
            first_rep=0,
        )
    out = RUNNERS[algorithm](n, reps, make_rng(SEED), graph=graph, overlay=overlay)
    h = hashlib.sha256()
    fields = [
        out.rounds,
        out.messages,
        out.bits,
        out.max_fanin,
        out.informed_counts,
        out.success,
    ]
    if straggler:
        fields.append(out.sim_time)
    for arr in fields:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_vector_cluster_outputs_are_pinned(name):
    assert case_digest(name) == DIGESTS[name]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{case}": (\n        "{case_digest(case)}"\n    ),')
