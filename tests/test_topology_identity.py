"""Bit-identity of the fast graph build and draw paths.

:mod:`repro.sim.topology` builds CSR adjacency with one combined-key
sort, finds repeated configuration-model pairs with a plain sort, and
draws structural contacts on regular graphs with a scalar bound and
without the ``-1`` bookkeeping.  Each is checked here against an in-test copy
of the straightforward formulation it replaced — a two-key ``lexsort``,
a stable ``argsort`` scan, and the ``has``-mask draw — on the same
inputs, down to the generator state a draw leaves behind.  A pinned
digest guards a bind far larger than the fingerprint corpus reaches.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import make_rng
from repro.sim.topology import (
    ContactGraph,
    ErdosRenyiGnp,
    RandomRegular,
    Ring,
    Torus2D,
    _csr_from_edges,
)

#: sha256 over the int64 ``indptr`` then ``indices`` bytes of
#: ``RandomRegular(d=8).bind(2**16, make_rng(12345))``, recorded with the
#: lexsort / stable-argsort construction.
REGULAR_2_16_DIGEST = "f504c3f0f42ba4ec3dc84fdac7d7e7383c8911ba6795ef78df193c14843c90bd"


def reference_csr(n, u, v):
    """CSR by a two-key lexsort: rows by source, then neighbor."""
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(src, minlength=n))
    return indptr, dst[order].astype(np.int64)


def reference_bad_pairs(n, u, v):
    """Self-loops plus every repeat of a pair after its first position."""
    bad = u == v
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    bad[order[np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1]) + 1]] = True
    return bad


def reference_draw(graph, reps, callers, rng):
    """Structural draw with the ``-1`` bookkeeping for isolated callers."""
    counts = graph.degrees[callers]
    draws = rng.integers(
        0, np.maximum(counts, 1)[None, :], size=(reps, len(callers)), dtype=np.int64
    )
    targets = np.full((reps, len(callers)), -1, dtype=np.int64)
    has = counts > 0
    if has.any():
        targets[:, has] = graph.indices[graph.indptr[callers[has]][None, :] + draws[:, has]]
    return targets


@st.composite
def edge_lists(draw, min_n=1, self_loops=True):
    """``(n, u, v)``: a random edge list over ``n`` nodes, with repeats."""
    n = draw(st.integers(min_value=min_n, max_value=40))
    m = draw(st.integers(min_value=0, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m, dtype=np.int64)
    v = rng.integers(0, n, size=m, dtype=np.int64)
    if not self_loops:
        v = np.where(u == v, (v + 1) % n, v)
    if m and draw(st.booleans()):
        # Force repeats: copy a random slice of pairs, half of them flipped.
        k = int(rng.integers(1, m + 1))
        pick = rng.integers(0, m, size=k)
        flip = rng.random(k) < 0.5
        u, v = (
            np.concatenate([u, np.where(flip, v[pick], u[pick])]),
            np.concatenate([v, np.where(flip, u[pick], v[pick])]),
        )
    return n, u, v


class TestCsrBuild:
    @given(edges=edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_matches_lexsort_reference(self, edges):
        n, u, v = edges
        indptr, indices = _csr_from_edges(n, u, v)
        ref_indptr, ref_indices = reference_csr(n, u, v)
        assert indptr.dtype == indices.dtype == np.int64
        np.testing.assert_array_equal(indptr, ref_indptr)
        np.testing.assert_array_equal(indices, ref_indices)

    def test_regular_bind_digest_pinned(self):
        graph = RandomRegular(d=8).bind(2**16, make_rng(12345))
        digest = hashlib.sha256()
        digest.update(graph.indptr.astype(np.int64).tobytes())
        digest.update(graph.indices.astype(np.int64).tobytes())
        assert digest.hexdigest() == REGULAR_2_16_DIGEST


class TestBadPairs:
    @given(edges=edge_lists(min_n=2), seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=150, deadline=None)
    def test_matches_stable_argsort_reference(self, edges, seed):
        n, u, v = edges
        # Force a few self-loops in on top of the drawn ones.
        rng = np.random.default_rng(seed)
        if len(u):
            loops = rng.integers(0, len(u), size=min(3, len(u)))
            v = v.copy()
            v[loops] = u[loops]
        got = RandomRegular._bad_pairs(n, u, v)
        np.testing.assert_array_equal(got, reference_bad_pairs(n, u, v))

    def test_configuration_model_stubs(self):
        # The shape a bind sees: strided halves of shuffled stubs.
        n, d = 512, 8
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        make_rng(3).shuffle(stubs)
        u, v = stubs[0::2], stubs[1::2]
        got = RandomRegular._bad_pairs(n, u, v)
        assert got.any()
        np.testing.assert_array_equal(got, reference_bad_pairs(n, u, v))


graph_specs = st.one_of(
    st.integers(min_value=1, max_value=9).map(lambda d: RandomRegular(d=d)),
    st.integers(min_value=1, max_value=4).map(lambda k: Ring(k=k)),
    st.just(Torus2D()),
    st.floats(min_value=0.01, max_value=0.4).map(lambda p: ErdosRenyiGnp(p=p)),
)


def _assert_same_draw(graph, reps, callers, seed, alive=None):
    rng, ref_rng = make_rng(seed), make_rng(seed)
    got = graph.sample_contacts_batch(reps, callers, rng, alive=alive)
    np.testing.assert_array_equal(got, reference_draw(graph, reps, callers, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


class TestStructuralDraw:
    @given(
        spec=graph_specs,
        n=st.sampled_from([36, 48, 64]),
        seed=st.integers(min_value=0, max_value=2**20),
        reps=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_bound_graphs_match_reference(self, spec, n, seed, reps):
        # Regular (ring, torus, random-regular), irregular and — at small
        # p — isolated-node G(n, p) graphs.
        graph = spec.bind(n, make_rng(seed))
        callers = np.arange(n)
        _assert_same_draw(graph, reps, callers, seed + 1)
        subset = make_rng(seed + 2).integers(0, n, size=n // 2)
        _assert_same_draw(graph, reps, subset, seed + 3)
        # A shared mask that keeps every edge is the structural draw.
        _assert_same_draw(graph, reps, callers, seed + 4, alive=np.ones(n, dtype=bool))

    @given(edges=edge_lists(min_n=2, self_loops=False), seed=st.integers(0, 2**20))
    @settings(max_examples=80, deadline=None)
    def test_edge_list_graphs_match_reference(self, edges, seed):
        # Arbitrary edge lists leave some nodes isolated and degrees
        # uneven; both kinds of graph must draw exactly as before.
        n, u, v = edges
        graph = ContactGraph("edges", n, *_csr_from_edges(n, u, v))
        _assert_same_draw(graph, 3, np.arange(n), seed)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 8, 12, 16, 33])
    def test_scalar_degree_bound(self, d):
        # The scalar bound a regular graph draws with.
        graph = RandomRegular(d=d).bind(100, make_rng(d))
        assert graph._regular_degree == d
        _assert_same_draw(graph, 3, np.arange(100), d)

    def test_isolated_node_draws_minus_one(self):
        graph = ContactGraph("path+1", 4, *_csr_from_edges(4, np.array([0, 1]), np.array([1, 2])))
        assert graph._regular_degree is None
        targets = graph.sample_contacts_batch(5, np.arange(4), make_rng(0))
        assert (targets[:, 3] == -1).all()
        assert (targets[:, :3] >= 0).all()


class TestOneSampler:
    @pytest.mark.parametrize(
        "spec", [RandomRegular(d=3), Ring(k=2), Torus2D(), ErdosRenyiGnp(p=0.03)]
    )
    @pytest.mark.parametrize("masked", [False, True])
    def test_sample_contacts_is_one_batch_row(self, spec, masked):
        n = 64
        graph = spec.bind(n, make_rng(5))
        alive = make_rng(6).random(n) >= 0.3 if masked else None
        callers = np.arange(n)
        rng, ref_rng = make_rng(7), make_rng(7)
        got = graph.sample_contacts(callers, rng, alive=alive, epoch=1)
        want = graph.sample_contacts_batch(1, callers, ref_rng, alive=alive, epoch=1)
        assert got.shape == (n,)
        np.testing.assert_array_equal(got, want[0])
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestCsrValidation:
    @pytest.mark.parametrize(
        "n, indptr, indices, match",
        [
            (2, [1, 1, 2], [1, 0], "run from 0"),
            (2, [0, 1, 1], [1, 0], "run from 0"),
            (3, [0, 2, 1, 2], [1, 0], "non-decreasing"),
            (2, [0, 1, 2], [1, 2], r"lie in \[0, n=2\)"),
            (2, [0, 1, 2], [-1, 0], r"lie in \[0, n=2\)"),
            (2, [0, 1], [0], r"shape \(n \+ 1,\)"),
            (2, [0, 1, 2], [[1], [0]], "1-D"),
        ],
    )
    def test_malformed_csr_is_a_one_line_error(self, n, indptr, indices, match):
        with pytest.raises(ValueError, match=match):
            ContactGraph("bad", n, np.array(indptr), np.array(indices))

    def test_well_formed_csr_accepted(self):
        graph = ContactGraph("pair", 3, np.array([0, 1, 2, 2]), np.array([1, 0]))
        assert graph.edge_count == 1
        assert graph._regular_degree is None
        empty = ContactGraph("empty", 0, np.array([0]), np.array([], dtype=np.int64))
        assert empty.edge_count == 0
        # Zero-regular: every node isolated, so no scalar draw bound.
        edgeless = ContactGraph("edgeless", 3, np.zeros(4), np.array([], dtype=np.int64))
        assert edgeless._regular_degree is None
        assert (edgeless.sample_contacts_batch(2, np.arange(3), make_rng(0)) == -1).all()
