"""Reference properties for the batched cluster primitives' kernels.

:mod:`repro.sim.batch_cluster` reduces receiver digests by an ordered
scatter, tallies per-rep counts by binary search, accounts ClusterResize
per leader, and patches its cached member view after re-leading writes
instead of rebuilding it.  Each is checked here against the simpler
version it replaced, kept below as the reference: the argsort digest,
``bincount``, the per-member resize accounting, and the full member-view
rebuild.  The telemetry probe's cluster count, kept by the writes that
change who leads rather than scanned for, is held to a fresh root scan.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.clustering import UNCLUSTERED
from repro.obs import Telemetry
from repro.sim import batch_cluster
from repro.sim.batch_cluster import ClusterBatch, _Members, _row_counts
from repro.sim.delivery import NOTHING
from repro.sim.rng import make_rng
from repro.sim.topology import RandomRegular

# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------


def reference_any_pairs(rng, dst, vals, size):
    """Per distinct ``dst``, a uniformly random received value: sparse
    deliveries keep each destination's minimum-priority delivery after
    one combined-key sort; dense ones scatter in permuted order."""
    m = len(dst)
    if m == 0:
        return dst, vals
    perm = rng.permutation(m)
    if m * 4 < size:
        order = np.argsort(dst * np.int64(m) + perm)
        d = dst[order]
        first = np.ones(m, dtype=bool)
        first[1:] = d[1:] != d[:-1]
        return d[first], vals[order][first]
    digest = np.full(size, NOTHING, dtype=np.int64)
    digest[dst[perm]] = vals[perm]
    d = np.flatnonzero(digest != NOTHING)
    return d, digest[d]


def reference_members(state: ClusterBatch, act) -> SimpleNamespace:
    """The member view of rows ``act``, rebuilt from ``follow``."""
    g = np.asarray(act)
    F = state.follow if len(g) == state.reps else state.follow[g]
    flatF = F.ravel()
    flat = np.flatnonzero(flatF != UNCLUSTERED)
    r, c = state._rowcol(flat)
    ldr = flatF[flat]
    is_l = ldr == c
    return SimpleNamespace(
        flatF=flatF, flat=flat, r=r, c=c, ldr=ldr, seg=flat + ldr - c,
        is_l=is_l, lead=np.flatnonzero(is_l),
    )


def reference_resize(state: ClusterBatch, act, s: int):
    """ClusterResize(s) with per-member split counts and accounting."""
    g = np.asarray(act)
    A = len(g)
    m = reference_members(state, act)
    r, c, seg = m.r, m.c, m.seg
    counts = np.bincount(seg, minlength=A * state.n)
    fan = np.maximum(counts.reshape(A, state.n).max(axis=1) - 1, 0)
    n_foll = np.bincount(r, minlength=A) - np.bincount(r[m.lead], minlength=A)
    state._charge(act, n_foll, n_foll * state.sizes.id_bits, fan=fan)
    k_member = np.maximum(counts[seg] // int(s), 1)
    sel = np.flatnonzero(k_member > 1)
    fsel = sel[~m.is_l[sel]]
    extra = np.bincount(
        r[fsel], weights=(k_member[fsel] - 1).astype(np.float64), minlength=A
    ).astype(np.int64)
    state._charge(act, n_foll, (n_foll + extra) * state.sizes.id_bits, fan=fan)
    keep = k_member[m.lead] == 1
    lead_u = m.lead[keep]
    rows_u, cols_u = r[lead_u], c[lead_u]
    sizes_u = counts[m.flat[lead_u]]
    if not len(sel):
        return rows_u, cols_u, sizes_u
    state._follow_ver += 1
    u = state.uid[g[r[sel]], c[sel]]
    sel = sel[np.argsort(seg[sel] * np.int64(state.n) + u)]
    rs, cs, seg_s, ks = r[sel], c[sel], seg[sel], k_member[sel]
    new_seg = np.ones(len(seg_s), dtype=bool)
    new_seg[1:] = seg_s[1:] != seg_s[:-1]
    seg_id = np.cumsum(new_seg) - 1
    starts = np.flatnonzero(new_seg)
    seg_sizes = np.diff(np.append(starts, len(seg_s)))
    rank = np.arange(len(seg_s)) - starts[seg_id]
    chunk = (rank * ks) // seg_sizes[seg_id]
    new_run = new_seg.copy()
    new_run[1:] |= chunk[1:] != chunk[:-1]
    run_id = np.cumsum(new_run) - 1
    run_starts = np.flatnonzero(new_run)
    run_last = np.append(run_starts[1:], len(seg_s)) - 1
    lead_r, lead_c = rs[run_last], cs[run_last]
    old_lead_c = seg_s[run_last] - lead_r * state.n
    old_active = state.active[g[lead_r], old_lead_c]
    state.follow[g[rs], cs] = lead_c[run_id]
    state.active[g[lead_r], lead_c] = old_active
    run_sizes = np.diff(np.append(run_starts, len(seg_s)))
    return (
        np.concatenate((rows_u, lead_r)),
        np.concatenate((cols_u, lead_c)),
        np.concatenate((sizes_u, run_sizes)),
    )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def grown_state(n: int, reps: int, seed: int, rounds: int) -> ClusterBatch:
    """Seeded clusters grown by ``rounds`` all-member push rounds, with
    random activation flags."""
    state = ClusterBatch(n, reps, make_rng(seed))
    state.seed_singletons(0.1)
    every = np.arange(reps)
    for _ in range(rounds):
        state.grow_push_round(every, active_only=False)
    state.active[...] = make_rng(seed + 1).random((reps, n)) < 0.5
    return state


def assert_same_view(view: _Members, ref: SimpleNamespace) -> None:
    for field in ("flatF", "flat", "r", "c", "ldr", "seg", "is_l", "lead"):
        np.testing.assert_array_equal(getattr(view, field), getattr(ref, field), field)


def assert_same_state(a: ClusterBatch, b: ClusterBatch) -> None:
    for field in ("follow", "active", "rounds", "messages", "bits", "max_fanin"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field), field)


acts = st.sampled_from(["whole", "subset"])


def pick_act(kind: str, reps: int, seed: int) -> np.ndarray:
    if kind == "whole" or reps == 1:
        return np.arange(reps)
    rng = make_rng(seed + 2)
    return np.sort(rng.choice(reps, size=rng.integers(1, reps), replace=False))


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


class TestOrderedScatterDigest:
    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=600),
        m=st.integers(min_value=0, max_value=900),
        span=st.integers(min_value=1, max_value=600),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(size=50, m=0, span=50, seed=1)  # nothing delivered
    @example(size=600, m=100, span=3, seed=2)  # sparse, few destinations
    @example(size=100, m=900, span=2, seed=3)  # dense, two destinations
    @example(size=100, m=3, span=1, seed=4)  # sparse, one destination
    @example(size=100, m=50, span=1, seed=5)  # dense, one destination
    def test_matches_sorted_reference_and_generator_state(self, size, m, span, seed):
        # A small span piles many deliveries onto few destinations.
        data = np.random.default_rng(seed)
        dst = data.integers(0, min(span, size), size=m).astype(np.int64)
        vals = data.integers(0, 1000, size=m).astype(np.int64)
        state = ClusterBatch(4, 1, make_rng(0))
        state.rng = make_rng(seed)
        ref_rng = make_rng(seed)
        d, v = state._receive_any_pairs(dst, vals, size)
        rd, rv = reference_any_pairs(ref_rng, dst, vals, size)
        np.testing.assert_array_equal(d, rd)
        np.testing.assert_array_equal(v, rv)
        assert state.rng.bit_generator.state == ref_rng.bit_generator.state


class TestRowCounts:
    @settings(max_examples=200, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=40),
        entries=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(n_rows=5, entries=0, seed=1)
    def test_equals_bincount_on_sorted_rows(self, n_rows, entries, seed):
        data = np.random.default_rng(seed)
        # Draw from a random subset of the rows so some stay empty.
        used = data.choice(n_rows, size=data.integers(1, n_rows + 1), replace=False)
        rows = np.sort(data.choice(used, size=entries)).astype(np.int64)
        np.testing.assert_array_equal(
            _row_counts(rows, n_rows), np.bincount(rows, minlength=n_rows)
        )


class TestResizeAndViewPatch:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([64, 100, 256]),
        reps=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**20),
        rounds=st.integers(min_value=0, max_value=5),
        s=st.integers(min_value=1, max_value=12),
        kind=acts,
    )
    def test_resize_matches_per_member_reference(self, n, reps, seed, rounds, s, kind):
        act = pick_act(kind, reps, seed)
        new, ref = grown_state(n, reps, seed, rounds), grown_state(n, reps, seed, rounds)
        got = new.cluster_resize(act, s)
        want = reference_resize(ref, act, s)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert_same_state(new, ref)
        # Whatever the next primitive sees equals a fresh rebuild.
        assert_same_view(new._members(act), reference_members(new, act))
        assert_same_view(new._members(np.arange(reps)), reference_members(new, np.arange(reps)))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([64, 100, 256]),
        reps=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**20),
        rounds=st.integers(min_value=0, max_value=5),
        s=st.integers(min_value=1, max_value=12),
    )
    def test_whole_batch_resize_patches_the_view(self, n, reps, seed, rounds, s):
        state = grown_state(n, reps, seed, rounds)
        every = np.arange(reps)
        state._members(every)
        state.cluster_resize(every, s)
        ver, _, view = state._view
        assert ver == state._follow_ver
        assert state._members(every) is view  # no rebuild
        assert_same_view(view, reference_members(state, every))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([64, 100, 256]),
        reps=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**20),
        rounds=st.integers(min_value=1, max_value=5),
        kind=acts,
    )
    def test_view_after_merge_equals_rebuild(self, n, reps, seed, rounds, kind):
        state = grown_state(n, reps, seed, rounds)
        act = pick_act(kind, reps, seed)
        # The MergeAllClusters step: merge toward strictly smaller uids.
        lr, lc, lead_v = state.cluster_push(act, "clustered", "min")
        better = state.uid[act[lr], lead_v] < state.uid[act[lr], lc]
        state.cluster_merge(act, lr[better], lc[better], lead_v[better])
        view = state._members(act)
        assert_same_view(view, reference_members(state, act))
        if len(act) == reps and better.any():
            assert state._view[0] == state._follow_ver and state._view[2] is view
        assert_same_view(state._members(np.arange(reps)), reference_members(state, np.arange(reps)))


class CountChecked(ClusterBatch):
    """A batch whose kept cluster count is held to a fresh root scan
    whenever it is read.  Under ``probe_every=1`` telemetry that is every
    committed round and the final sample, so the writes each primitive
    makes after its last round are checked at the next one."""

    reads = 0

    def _cluster_count(self) -> float:
        value = super()._cluster_count()
        assert value == np.count_nonzero(self.follow == self._cols) / self.reps
        CountChecked.reads += 1
        return value


class TestKeptClusterCount:
    @pytest.mark.parametrize(
        "runner,graph",
        [("cluster1", None), ("cluster2", None), ("cluster2", RandomRegular(d=6))],
    )
    def test_runner_samples_equal_a_fresh_scan(self, monkeypatch, runner, graph):
        monkeypatch.setattr(batch_cluster, "ClusterBatch", CountChecked)
        n, reps = 512, 4
        kwargs = {} if graph is None else {"graph": graph.bind(n, make_rng(9))}
        run = Telemetry(probe_every=1).begin_run({})
        CountChecked.reads = 0
        getattr(batch_cluster, f"batched_{runner}")(
            n, reps, make_rng(8), telemetry=run, **kwargs
        )
        assert CountChecked.reads >= len(run.series.to_columns()["round"]) > 1

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([64, 100, 256]),
        reps=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**20),
        s=st.integers(min_value=1, max_value=12),
        kind=acts,
    )
    def test_every_primitive_on_act_subsets(self, n, reps, seed, s, kind):
        run = Telemetry(probe_every=1).begin_run({})
        state = CountChecked(n, reps, make_rng(seed), telemetry=run)
        assert state._cluster_count() == 0.0  # read before seeding
        state.seed_singletons(0.1)
        act = pick_act(kind, reps, seed)
        state.cluster_activate(act, 0.5)
        state.grow_push_round(act, active_only=True)
        state.grow_push_round(act, active_only=False)
        state.cluster_size(act)
        state.cluster_resize(act, s)
        state.cluster_dissolve(act, s)
        lr, lc, lead_v = state.cluster_push(act, "clustered", "min")
        better = state.uid[act[lr], lead_v] < state.uid[act[lr], lc]
        state.cluster_merge(act, lr[better], lc[better], lead_v[better])
        state.unclustered_pull_round(act)
        state.cluster_share(act, np.zeros((len(act), n), dtype=bool))
        state._cluster_count()
