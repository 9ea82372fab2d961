"""Unit tests for the receiver-side reductions (repro.sim.delivery)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.delivery import (
    NOTHING,
    receive_all_sorted,
    receive_any,
    receive_counts,
    receive_min_by_key,
    receive_or,
)
from repro.sim.rng import make_rng


class TestCounts:
    def test_counts(self):
        out = receive_counts(5, np.array([0, 0, 3]))
        assert out.tolist() == [2, 0, 0, 1, 0]

    def test_empty(self):
        assert receive_counts(3, np.array([], dtype=np.int64)).tolist() == [0, 0, 0]


class TestOr:
    def test_or(self):
        out = receive_or(4, np.array([1, 1, 2]))
        assert out.tolist() == [False, True, True, False]


class TestAny:
    def test_nothing_when_empty(self):
        out = receive_any(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64), make_rng(0))
        assert (out == NOTHING).all()

    def test_single_delivery(self):
        out = receive_any(3, np.array([1]), np.array([42]), make_rng(0))
        assert out[1] == 42 and out[0] == NOTHING

    def test_choice_is_uniform(self):
        # Node 0 receives values {1, 2}; over many trials both appear ~50%.
        dsts = np.array([0, 0])
        values = np.array([1, 2])
        picks = [receive_any(1, dsts, values, make_rng(s))[0] for s in range(400)]
        ones = sum(1 for p in picks if p == 1)
        assert 120 < ones < 280

    def test_choice_among_received_only(self):
        out = receive_any(4, np.array([2, 2, 2]), np.array([7, 8, 9]), make_rng(1))
        assert out[2] in (7, 8, 9)
        assert out[0] == out[1] == out[3] == NOTHING


class TestMinByKey:
    def test_min_key_wins(self):
        dsts = np.array([0, 0, 1])
        values = np.array([10, 20, 30])
        keys = np.array([5, 3, 9])
        out = receive_min_by_key(3, dsts, values, keys)
        assert out[0] == 20  # key 3 < 5
        assert out[1] == 30
        assert out[2] == NOTHING

    def test_matches_bruteforce(self):
        rng = make_rng(7)
        n = 30
        m = 200
        dsts = rng.integers(0, n, m)
        values = rng.integers(0, 1000, m)
        keys = rng.integers(0, 10_000, m)
        out = receive_min_by_key(n, dsts, values, keys)
        for node in range(n):
            received = [(keys[i], values[i]) for i in range(m) if dsts[i] == node]
            if not received:
                assert out[node] == NOTHING
            else:
                best_key = min(k for k, _ in received)
                best_vals = {v for k, v in received if k == best_key}
                assert out[node] in best_vals

    def test_empty(self):
        e = np.array([], dtype=np.int64)
        assert (receive_min_by_key(3, e, e, e) == NOTHING).all()

    def test_equal_keys_take_the_smaller_value(self):
        dsts = np.array([2, 2, 2, 0])
        values = np.array([9, 4, 7, 1])
        keys = np.array([3, 3, 8, 5])
        out = receive_min_by_key(3, dsts, values, keys)
        assert out.tolist() == [1, NOTHING, 4]


def lexsort_min_by_key(n, dsts, values, keys):
    """The sort-based min digest the scatter passes replaced, kept as
    the reference: sort by (destination, key, value) and keep the head
    of each destination's run."""
    out = np.full(n, NOTHING, dtype=np.int64)
    if len(dsts) == 0:
        return out
    order = np.lexsort((values, keys, dsts))
    d = dsts[order]
    first = np.ones(len(d), dtype=bool)
    first[1:] = d[1:] != d[:-1]
    out[d[first]] = values[order][first]
    return out


@st.composite
def deliveries(draw):
    """``(n, dsts, values, keys)``: up to 60 deliveries over up to 12
    nodes, keys from a small range so equal keys on different values
    are common, values and keys reaching the int64 extremes."""
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=60))
    big = st.sampled_from([0, 2**62, np.iinfo(np.int64).max])
    ints = st.one_of(st.integers(min_value=0, max_value=5), big)
    dsts = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    values = draw(st.lists(ints, min_size=m, max_size=m))
    keys = draw(st.lists(ints, min_size=m, max_size=m))
    return n, *(np.array(a, dtype=np.int64) for a in (dsts, values, keys))


EMPTY = np.array([], dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(deliveries())
@example((3, EMPTY, EMPTY, EMPTY))
@example((2, np.array([1, 1, 1]), np.array([5, 2, 9]), np.array([4, 4, 4])))
def test_min_by_key_matches_the_lexsort_reference(case):
    n, dsts, values, keys = case
    np.testing.assert_array_equal(
        receive_min_by_key(n, dsts, values, keys),
        lexsort_min_by_key(n, dsts, values, keys),
    )


class TestAllSorted:
    def test_groups(self):
        dsts = np.array([2, 0, 2, 1])
        values = np.array([10, 20, 30, 40])
        uniq, offsets, vals = receive_all_sorted(dsts, values)
        assert uniq.tolist() == [0, 1, 2]
        got = {int(u): sorted(vals[offsets[i] : offsets[i + 1]].tolist()) for i, u in enumerate(uniq)}
        assert got == {0: [20], 1: [40], 2: [10, 30]}

    def test_empty(self):
        uniq, offsets, vals = receive_all_sorted(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert len(uniq) == 0 and offsets.tolist() == [0] and len(vals) == 0
