"""E9 — ablations of the design choices DESIGN.md calls out.

Not a paper table; these runs isolate *why* each ingredient of Cluster2
is there, by removing it and measuring what breaks:

* **no-squaring** (grow → merge-all directly): MergeAllClusters must
  coalesce polylog-size clusters instead of `sqrt(n)`-size ones — the
  min-ID cluster cannot reach everyone in O(1) repetitions, so the merge
  phase degenerates (more repetitions / leftover clusters).
* **no-bounded-push** (skip BoundedClusterPush): the PULL endgame starts
  from a `Theta(x*)`-fraction cluster instead of a constant fraction, so
  the pull phase sends ~`1/x*` times more messages (Lemma 13's point).
* **single merge repetition**: the second ClusterPUSH/Merge repetition
  exists to catch the inactive clusters the first one missed (Lemma 6);
  with one repetition, squaring leaves stragglers behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_common import emit
from repro.analysis.tables import Table
from repro.core import phases
from repro.core.clustering import Clustering
from repro.core.constants import LAPTOP
from repro.core.primitives import cluster_share_rumor
from repro.sim.engine import Simulator
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.rng import make_rng

N = 2**13
SEEDS = [0, 1, 2]


def build(seed):
    net = Network(N, rng=seed)
    sim = Simulator(net, make_rng(seed + 1), Metrics(N))
    return sim, Clustering(net)


def run_variant(seed: int, *, squaring=True, bounded_push=True, merge_reps=4):
    sim, cl = build(seed)
    b = phases.SequentialBackend(sim, cl)
    p = LAPTOP.cluster2(N)
    phases.grow_v2(b, p)
    if squaring:
        phases.square_v2(b, p)
    phases.merge_all(b, reps=merge_reps)
    clusters_after_merge = cl.cluster_count()
    if bounded_push:
        phases.bounded_push(
            b,
            growth_stop=p.bounded_push_growth_stop,
            rounds_cap=p.bounded_push_rounds_cap,
        )
    phases.pull(b, p.pull_rounds)
    informed = np.zeros(N, dtype=bool)
    informed[0] = True
    informed = cluster_share_rumor(sim, cl, informed)
    return {
        "rounds": sim.metrics.rounds,
        "msgs_per_node": sim.metrics.messages / N,
        "pull_msgs": sim.metrics.phases["pull"].messages,
        "clusters_after_merge": clusters_after_merge,
        "informed": float(informed[sim.net.alive].mean()),
    }


@pytest.fixture(scope="module")
def variants():
    out = {}
    configs = {
        "full cluster2": {},
        "no squaring": {"squaring": False},
        "no bounded-push": {"bounded_push": False},
        "merge reps = 1": {"merge_reps": 1},
    }
    for name, kw in configs.items():
        out[name] = [run_variant(s, **kw) for s in SEEDS]
    return out


def test_e9_table(variants):
    table = Table(
        title=f"E9: Cluster2 ablations at n={N} (mean of {len(SEEDS)} seeds)",
        columns=[
            "variant",
            "rounds",
            "msgs/node",
            "pull-phase msgs",
            "clusters after merge",
            "informed",
        ],
        caption=(
            "Removing squaring leaves merge-all with too many small "
            "clusters; removing bounded-push blows up the PULL phase's "
            "message bill; one merge repetition risks stragglers."
        ),
    )

    def mean(name, key):
        vals = [v[key] for v in variants[name]]
        return sum(vals) / len(vals)

    for name in variants:
        table.add(
            name,
            f"{mean(name, 'rounds'):.1f}",
            f"{mean(name, 'msgs_per_node'):.1f}",
            f"{mean(name, 'pull_msgs'):.0f}",
            f"{mean(name, 'clusters_after_merge'):.1f}",
            f"{mean(name, 'informed'):.4f}",
        )
    emit(table, "E9_ablations")

    # The full algorithm informs everyone on every seed.
    assert all(v["informed"] == 1.0 for v in variants["full cluster2"])
    # No-bounded-push pays more PULL messages than the full algorithm.
    assert mean("no bounded-push", "pull_msgs") > 2 * mean("full cluster2", "pull_msgs")
    # No-squaring leaves merge-all more clusters to chew through than full.
    assert mean("no squaring", "clusters_after_merge") >= mean(
        "full cluster2", "clusters_after_merge"
    )
    # One merge repetition leaves stragglers behind (Lemma 6's second rep).
    assert mean("merge reps = 1", "clusters_after_merge") >= mean(
        "full cluster2", "clusters_after_merge"
    )


def test_e9_full_variant_run(benchmark):
    result = benchmark(lambda: run_variant(0))
    assert result["informed"] == 1.0
