"""ClusterResize splits every oversized cluster in one pass, on both tiers.

The sequential ClusterResize used to split cluster by cluster: a Python
loop over the leaders, each pass scanning the whole network for the
leader's members.  That loop is kept below as the reference.  On drawn
clusterings (several clusters with k = 1 and k > 1 mixed, unclustered
and dead nodes, crashes that fire at the pull round's commit) the
vectorised split must leave the same ``follow`` and ``active``, return
the same split count and charge the same rounds, messages and bits.

Both tiers split through :func:`repro.core.clustering.split_chunks`; a
one-row ``ClusterBatch`` holding the same clustering, with uid ranks for
uids, must end where the sequential backend of the phase recipe
(:class:`repro.core.phases.SequentialBackend`) does.  The same holds for
every primitive that draws no coin (ClusterSize, ClusterDissolve, a
merge toward smaller-uid targets, ClusterShare, activate-all): same
``follow``, ``active``, returned triplets and informed mask, the same
ledger totals, and the same answers to the recipe's row queries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.clustering import UNCLUSTERED, Clustering
from repro.core.phases import SequentialBackend
from repro.core.primitives import cluster_resize
from repro.sim.batch_cluster import ClusterBatch
from repro.sim.dynamics import AdversitySchedule, CrashAt
from repro.sim.engine import Simulator
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.rng import make_rng

from helpers import members_of


def reference_resize(sim: Simulator, cl: Clustering, s: int) -> int:
    """The per-leader ClusterResize loop, as the sequential tier ran it.

    One line differs: the new leaders are indexed by each chunk's rank
    among the chunks that exist, not by its raw id.  The two agree while
    ``k`` is at most the cluster's size plus one; when the pull's commit
    crashed enough members for ``k`` to reach the size plus two, the raw
    ids skipped values and indexed past the new-leader list, while the
    ranks make every member lead itself.
    """
    if s < 1:
        raise ValueError(f"target size must be >= 1, got {s}")
    followers = cl.followers()
    sizes = sim.net.sizes
    with sim.round("ClusterResize:push") as r:
        r.push(followers, cl.follow[followers], sizes.id_bits)

    counts = cl.sizes()
    k_per_leader = np.maximum(counts // s, 1)

    with sim.round("ClusterResize:pull") as r:
        resp_bits = k_per_leader[cl.follow[followers]] * sizes.id_bits
        r.pull(followers, cl.follow[followers], resp_bits)

    uid = sim.net.uid
    splits = 0
    for leader in cl.leaders():
        k = int(k_per_leader[leader])
        if k <= 1:
            continue
        members = members_of(cl, int(leader))
        members = members[np.argsort(uid[members])]
        size = len(members)
        chunk = (np.arange(size) * k) // size
        last_in_chunk = np.flatnonzero(np.diff(np.append(chunk, k)) > 0)
        new_leaders = members[last_in_chunk]
        cl.active[new_leaders] = cl.active[leader]
        cl.set_follow(members, new_leaders[np.searchsorted(chunk[last_in_chunk], chunk)])
        splits += 1
    cl.check_invariants()
    return splits


def build_world(n, seed, clusters, dead, loose, crash_round, crash_frac):
    """A simulator and a clustering drawn from ``seed``: ``clusters``
    leaders among the live nodes with skewed shares of the rest,
    ``loose`` of the nodes unclustered, ``dead`` of them failed before
    the run (their stale ``follow`` kept), and, at ``crash_round``, a
    crash of ``crash_frac`` of the live nodes."""
    data = np.random.default_rng(seed)
    net = Network(n, rng=seed)
    down = np.flatnonzero(data.random(n) < dead)
    net.fail(down[: n - clusters])  # leave a live node per leader
    live = np.flatnonzero(net.alive)
    leaders = data.choice(live, size=clusters, replace=False)
    dynamics = None
    if crash_round is not None:
        victims = data.choice(live, size=int(crash_frac * len(live)), replace=False)
        schedule = AdversitySchedule((CrashAt(crash_round, indices=tuple(victims.tolist())),))
        dynamics = schedule.bind(net, make_rng(seed + 2))
    sim = Simulator(net, make_rng(seed + 1), Metrics(n), dynamics=dynamics)
    cl = Clustering(net)
    shares = data.dirichlet(np.full(clusters, 0.5))
    cl.set_follow(np.s_[:], leaders[data.choice(clusters, size=n, p=shares)])
    cl.set_follow(data.random(n) < loose, UNCLUSTERED)
    cl.set_follow(leaders, leaders)
    cl.active[:] = data.random(n) < 0.5
    cl.check_invariants()
    return sim, cl


def pick_s(cl: Clustering, s_pick: int) -> int:
    """A target size from 1 up to the largest cluster's size."""
    largest = int(cl.sizes().max())
    return 1 + s_pick % largest


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=160),
    seed=st.integers(min_value=0, max_value=2**20),
    clusters=st.integers(min_value=1, max_value=8),
    s_pick=st.integers(min_value=0, max_value=10**6),
    dead=st.sampled_from([0.0, 0.1, 0.3]),
    loose=st.sampled_from([0.0, 0.2, 0.5]),
    crash_round=st.sampled_from([None, 1, 2]),
    crash_frac=st.sampled_from([0.05, 0.3, 0.7]),
)
# Crashes at the pull round's commit, one of them dropping a cluster
# below its k (k > size: every member leads itself).
@example(n=64, seed=3, clusters=3, s_pick=1, dead=0.1, loose=0.2, crash_round=2, crash_frac=0.3)
@example(n=40, seed=11, clusters=1, s_pick=1, dead=0.0, loose=0.0, crash_round=2, crash_frac=0.7)
def test_vectorised_resize_matches_the_leader_loop(
    n, seed, clusters, s_pick, dead, loose, crash_round, crash_frac
):
    sim, cl = build_world(n, seed, clusters, dead, loose, crash_round, crash_frac)
    ref_sim, ref_cl = build_world(n, seed, clusters, dead, loose, crash_round, crash_frac)
    s = pick_s(cl, s_pick)
    assert cluster_resize(sim, cl, s) == reference_resize(ref_sim, ref_cl, s)
    np.testing.assert_array_equal(cl.follow, ref_cl.follow)
    np.testing.assert_array_equal(cl.active, ref_cl.active)
    np.testing.assert_array_equal(sim.net.alive, ref_sim.net.alive)
    assert sim.metrics.total == ref_sim.metrics.total


def test_crash_at_the_pull_commit_resizes_the_survivors():
    """k is fixed before the pull, membership read after it: one
    64-member cluster at s = 8 (k = 8) loses four followers as the pull
    commits, and the 60 survivors still split into 8 chunks, each led by
    its largest uid.  Sizing the chunks from the pre-pull count fails."""
    worlds = []
    for _ in range(2):
        net = Network(64, rng=5)
        order = np.argsort(net.uid)
        victims = tuple(int(v) for v in order[[3, 20, 41, 62]])
        schedule = AdversitySchedule((CrashAt(2, indices=victims),))
        sim = Simulator(net, make_rng(6), Metrics(64), dynamics=schedule.bind(net, make_rng(7)))
        cl = Clustering(net)
        cl.set_follow(np.s_[:], order[-1])
        cl.active[order[-1]] = True
        worlds.append((sim, cl))
    (sim, cl), (ref_sim, ref_cl) = worlds
    assert cluster_resize(sim, cl, 8) == reference_resize(ref_sim, ref_cl, 8) == 1
    np.testing.assert_array_equal(cl.follow, ref_cl.follow)
    np.testing.assert_array_equal(cl.active, ref_cl.active)
    leaders = cl.leaders()
    assert len(leaders) == 8 and cl.active[leaders].all()
    assert cl.sizes()[leaders].sum() == 60
    uid = sim.net.uid
    for leader in leaders:
        assert uid[leader] == uid[members_of(cl, int(leader))].max()


def one_row_worlds(case):
    """A drawn clustering twice: the sequential backend over it, and a
    one-row ``ClusterBatch`` holding the same ``follow`` and ``active``,
    with uid ranks for uids.  Also returns the case's data generator."""
    data = np.random.default_rng(1000 + case)
    n = int(data.integers(16, 601))
    clusters = int(data.integers(1, 9))
    sim, cl = build_world(n, 1000 + case, clusters, 0.0, 0.2, None, 0.0)
    batch = ClusterBatch(n, 1, make_rng(case))
    batch.follow[0] = cl.follow
    batch.active[0] = cl.active
    batch.uid[0] = np.argsort(np.argsort(sim.net.uid))
    return data, SequentialBackend(sim, cl), batch


def by_leader(triplet):
    """A leader triplet in leader-column order (one row)."""
    rows, cols, values = triplet
    order = np.argsort(cols)
    return rows[order], cols[order], values[order]


def assert_same_tiers(seq: SequentialBackend, batch: ClusterBatch) -> None:
    """Same clustering, same row queries, same ledger on both tiers."""
    np.testing.assert_array_equal(batch.follow[0], seq.cl.follow)
    np.testing.assert_array_equal(batch.active[0], seq.cl.active)
    act = np.arange(1)
    for query in ("leaders", "leader_sizes"):
        for ours, theirs in zip(getattr(seq, query)(act), getattr(batch, query)(act)):
            np.testing.assert_array_equal(ours, theirs)
    np.testing.assert_array_equal(seq.unclustered_counts(act), batch.unclustered_counts(act))
    m = seq.sim.metrics
    assert (batch.rounds[0], batch.messages[0], batch.bits[0], batch.max_fanin[0]) == (
        m.rounds, m.messages, m.bits, m.max_fanin,
    )


@pytest.mark.parametrize("case", range(40))
def test_one_split_on_both_tiers(case):
    data, seq, batch = one_row_worlds(case)
    assert_same_tiers(seq, batch)
    s = pick_s(seq.cl, int(data.integers(0, 10**6)))
    act = np.arange(1)
    for ours, theirs in zip(
        by_leader(seq.cluster_resize(act, s)), by_leader(batch.cluster_resize(act, s))
    ):
        np.testing.assert_array_equal(ours, theirs)
    assert_same_tiers(seq, batch)


def min_uid_targets(data, seq: SequentialBackend):
    """About half the leaders, each merging toward a random leader of
    smaller uid (chains included)."""
    _, lead = seq.leaders(np.arange(1))
    uid = seq.sim.net.uid
    cols, targets = [], []
    for leader in lead:
        smaller = lead[uid[lead] < uid[leader]]
        if len(smaller) and data.random() < 0.5:
            cols.append(leader)
            targets.append(data.choice(smaller))
    cols = np.array(cols, dtype=np.int64)
    return np.zeros(len(cols), dtype=np.int64), cols, np.array(targets, dtype=np.int64)


@pytest.mark.parametrize("case", range(25))
@pytest.mark.parametrize("op", ["size", "dissolve", "merge", "share", "activate-all"])
def test_one_primitive_on_both_tiers(op, case):
    """Every coin-free primitive ends where the sequential one does, on
    the state, the returned triplet or mask, and the ledger."""
    data, seq, batch = one_row_worlds(case)
    act = np.arange(1)
    if op == "size":
        ours, theirs = seq.cluster_size(act), batch.cluster_size(act)
    elif op == "dissolve":
        s = pick_s(seq.cl, int(data.integers(0, 10**6)))
        ours, theirs = seq.cluster_dissolve(act, s), batch.cluster_dissolve(act, s)
    elif op == "merge":
        rows, cols, targets = min_uid_targets(data, seq)
        seq.cluster_merge(act, rows, cols, targets)
        batch.cluster_merge(act, rows, cols, targets)
        ours = theirs = None  # only the sequential merge counts its merges
    elif op == "share":
        informed = data.random((1, seq.n)) < 0.3
        ours, theirs = seq.cluster_share(act, informed), batch.cluster_share(act, informed)
    else:
        ours, theirs = seq.cluster_activate(act, None), batch.cluster_activate(act, None)
    if ours is None:
        assert theirs is None
    else:
        for a, b in zip(ours if isinstance(ours, tuple) else (ours,),
                        theirs if isinstance(theirs, tuple) else (theirs,)):
            np.testing.assert_array_equal(a, b)
    assert_same_tiers(seq, batch)
