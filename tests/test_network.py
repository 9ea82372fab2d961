"""Unit tests for repro.sim.network."""

import numpy as np
import pytest

from repro.sim.network import Network


class TestConstruction:
    def test_uids_unique(self):
        net = Network(500, rng=0)
        assert len(np.unique(net.uid)) == 500

    def test_all_alive_initially(self):
        net = Network(50, rng=0)
        assert net.alive_count == 50

    def test_rejects_empty_network(self):
        with pytest.raises(ValueError):
            Network(0)

    def test_one_node_network_is_valid(self):
        # A single node is a degenerate but legal network: it gossips
        # with nobody (random_targets yields the -1 void sentinel) and
        # a broadcast to it trivially succeeds.
        net = Network(1, rng=0)
        assert net.alive_count == 1

    def test_sizes_attached(self):
        net = Network(100, rng=0, rumor_bits=999)
        assert net.sizes.rumor_bits == 999


class TestFailures:
    def test_fail_marks_dead(self):
        net = Network(100, rng=0)
        net.fail([3, 7])
        assert not net.alive[3] and not net.alive[7]
        assert net.alive_count == 98

    def test_fail_empty_noop(self):
        net = Network(10, rng=0)
        net.fail([])
        assert net.alive_count == 10

    def test_fail_out_of_range(self):
        net = Network(10, rng=0)
        with pytest.raises(IndexError):
            net.fail([10])

    def test_filter_alive(self):
        net = Network(10, rng=0)
        net.fail([2])
        out = net.filter_alive(np.array([1, 2, 3]))
        assert out.tolist() == [1, 3]

    def test_alive_indices(self):
        net = Network(5, rng=0)
        net.fail([0, 4])
        assert net.alive_indices().tolist() == [1, 2, 3]


class TestAddressing:
    def test_min_uid_index_global(self):
        net = Network(64, rng=1)
        assert net.min_uid_index() == int(np.argmin(net.uid))

    def test_min_uid_index_subset(self):
        net = Network(64, rng=1)
        subset = np.array([5, 10, 20])
        got = net.min_uid_index(subset)
        assert got in subset
        assert net.uid[got] == net.uid[subset].min()

    def test_min_uid_empty_raises(self):
        net = Network(8, rng=1)
        with pytest.raises(ValueError):
            net.min_uid_index(np.array([], dtype=np.int64))

    def test_random_targets_in_range(self):
        net = Network(100, rng=0)
        t = net.random_targets(1000, np.random.default_rng(0))
        assert t.min() >= 0 and t.max() < 100

    def test_random_targets_exclude_self(self):
        net = Network(10, rng=0)
        srcs = np.arange(10).repeat(100)
        t = net.random_targets(len(srcs), np.random.default_rng(0), exclude=srcs)
        assert (t != srcs).all()
        assert t.min() >= 0 and t.max() < 10
        # every other node is still reachable
        assert len(np.unique(t[srcs == 0])) == 9

    def test_random_targets_exclude_uniform_two_nodes(self):
        net = Network(2, rng=0)
        srcs = np.zeros(50, dtype=np.int64)
        t = net.random_targets(50, np.random.default_rng(1), exclude=srcs)
        assert (t == 1).all()

    def test_random_targets_exclude_shape_checked(self):
        net = Network(10, rng=0)
        with pytest.raises(ValueError):
            net.random_targets(5, np.random.default_rng(0), exclude=np.arange(3))
