"""Property-based tests (hypothesis) on the core data structures.

These pin the invariants the correctness proofs lean on: delivery
reductions agree with brute force, ClusterResize produces a partition with
the documented size/leader properties, merges never lose members, and the
engine's accounting is additive.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import UNCLUSTERED, Clustering
from repro.core.primitives import cluster_merge, cluster_resize
from repro.sim.delivery import NOTHING, receive_any, receive_counts, receive_min_by_key
from repro.sim.rng import make_rng

from helpers import build_sim, members_of


# ----------------------------------------------------------------------
# Delivery reductions
# ----------------------------------------------------------------------

deliveries = st.integers(min_value=0, max_value=60).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.integers(0, 19), min_size=m, max_size=m),  # dsts (n=20)
        st.lists(st.integers(0, 999), min_size=m, max_size=m),  # values
        st.lists(st.integers(0, 9999), min_size=m, max_size=m),  # keys
    )
)


@given(deliveries)
@settings(max_examples=60, deadline=None)
def test_receive_min_matches_bruteforce(data):
    m, dsts, values, keys = data
    dsts = np.array(dsts, dtype=np.int64)
    values = np.array(values, dtype=np.int64)
    keys = np.array(keys, dtype=np.int64)
    out = receive_min_by_key(20, dsts, values, keys)
    for node in range(20):
        received = [(keys[i], values[i]) for i in range(m) if dsts[i] == node]
        if not received:
            assert out[node] == NOTHING
        else:
            kmin = min(k for k, _ in received)
            assert out[node] in {v for k, v in received if k == kmin}


@given(deliveries, st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_receive_any_picks_only_received(data, seed):
    m, dsts, values, _ = data
    dsts = np.array(dsts, dtype=np.int64)
    values = np.array(values, dtype=np.int64)
    out = receive_any(20, dsts, values, make_rng(seed))
    for node in range(20):
        received = {values[i] for i in range(m) if dsts[i] == node}
        if not received:
            assert out[node] == NOTHING
        else:
            assert out[node] in received


@given(deliveries)
@settings(max_examples=40, deadline=None)
def test_receive_counts_total(data):
    m, dsts, _, _ = data
    counts = receive_counts(20, np.array(dsts, dtype=np.int64))
    assert counts.sum() == m


# ----------------------------------------------------------------------
# ClusterResize partition properties
# ----------------------------------------------------------------------


@given(
    n=st.integers(16, 200),
    s=st.integers(2, 20),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_resize_is_partition_with_bounded_sizes(n, s, seed):
    sim = build_sim(n, seed=seed)
    cl = Clustering(sim.net)
    cl.set_follow(np.s_[:], 0)  # one giant cluster led by node 0
    cl.set_follow(0, 0)
    cluster_resize(sim, cl, s)
    cl.check_invariants()
    leaders = cl.leaders()
    sizes = cl.sizes()[leaders]
    # partition: every node clustered exactly once
    assert sizes.sum() == n
    # paper: after resizing, all clusters have size < 2s (when the cluster
    # was >= s to begin with)
    if n >= s:
        assert sizes.max() <= 2 * s - 1
        assert sizes.min() >= s
    # when a split happened, each new leader holds its chunk's largest uid
    # (an unsplit cluster keeps its original leader)
    if n // s >= 2:
        uid = sim.net.uid
        for leader in leaders:
            assert uid[leader] == uid[members_of(cl, int(leader))].max()


# ----------------------------------------------------------------------
# Merge conservation
# ----------------------------------------------------------------------


@given(
    n_clusters=st.integers(2, 10),
    size=st.integers(1, 8),
    seed=st.integers(0, 500),
    merge_count=st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_merge_conserves_membership(n_clusters, size, seed, merge_count):
    n = n_clusters * size
    if n < 2:
        return
    sim = build_sim(max(n, 2), seed=seed)
    cl = Clustering(sim.net)
    idx = np.arange(n)
    cl.set_follow(np.s_[:n], (idx // size) * size)
    cl.check_invariants()
    before = cl.clustered_count()

    rng = make_rng(seed)
    leaders = cl.leaders()
    new_leader = np.full(sim.net.n, NOTHING, dtype=np.int64)
    # merge a few clusters into the first leader (bipartite, acyclic)
    targets = leaders[1:][: merge_count]
    new_leader[targets] = leaders[0]
    cluster_merge(sim, cl, new_leader)
    cl.check_invariants()
    assert cl.clustered_count() == before  # nobody lost or duplicated
    assert cl.cluster_count() == len(leaders) - len(targets)


# ----------------------------------------------------------------------
# Engine accounting additivity
# ----------------------------------------------------------------------


@given(
    batches=st.lists(
        st.tuples(st.integers(1, 10), st.integers(1, 64)), min_size=1, max_size=5
    ),
    seed=st.integers(0, 100),
)
@settings(max_examples=40, deadline=None)
def test_push_accounting_additive(batches, seed):
    sim = build_sim(64, seed=seed)
    expected_msgs = 0
    expected_bits = 0
    rng = make_rng(seed)
    for count, bits in batches:
        srcs = rng.choice(64, size=count, replace=False)
        dsts = sim.random_targets(srcs)
        sim.push_round(srcs, dsts, bits)
        expected_msgs += count
        expected_bits += count * bits
    assert sim.metrics.messages == expected_msgs
    assert sim.metrics.bits == expected_bits
    assert sim.metrics.rounds == len(batches)
