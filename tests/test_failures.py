"""Unit tests for the oblivious failure patterns."""

import numpy as np
import pytest

from repro.core.broadcast import broadcast, run_replications
from repro.sim.failures import (
    apply_pattern,
    fail_fraction,
    fail_prefix,
    fail_random,
    fail_smallest_uids,
)
from repro.sim.network import Network


class TestPatterns:
    def test_random_count(self):
        net = Network(100, rng=0)
        failed = fail_random(net, 10, rng=1)
        assert len(failed) == 10
        assert net.alive_count == 90

    def test_random_deterministic(self):
        a = Network(100, rng=0)
        b = Network(100, rng=0)
        fa = fail_random(a, 10, rng=5)
        fb = fail_random(b, 10, rng=5)
        assert fa.tolist() == fb.tolist()

    def test_prefix(self):
        net = Network(20, rng=0)
        failed = fail_prefix(net, 3)
        assert failed.tolist() == [0, 1, 2]

    def test_smallest_uids(self):
        net = Network(50, rng=1)
        failed = fail_smallest_uids(net, 5)
        dead_uids = net.uid[failed]
        alive_uids = net.uid[net.alive_indices()]
        assert dead_uids.max() < alive_uids.min()

    def test_fraction(self):
        net = Network(200, rng=0)
        fail_fraction(net, 0.25, rng=0)
        assert net.alive_count == 150

    def test_fraction_bounds(self):
        net = Network(10, rng=0)
        with pytest.raises(ValueError):
            fail_fraction(net, 1.0)


class TestApplyPattern:
    @pytest.mark.parametrize("pattern", ["random", "prefix", "smallest-uids"])
    def test_named_patterns(self, pattern):
        net = Network(40, rng=0)
        failed = apply_pattern(net, pattern, 4, rng=0)
        assert len(failed) == 4
        assert not net.alive[failed].any()

    def test_fraction_pattern_registered(self):
        net = Network(40, rng=0)
        failed = apply_pattern(net, "fraction", 0.25, rng=0)
        assert len(failed) == 10
        assert net.alive_count == 30

    def test_fraction_pattern_bounds(self):
        net = Network(10, rng=0)
        with pytest.raises(ValueError, match="fraction"):
            apply_pattern(net, "fraction", 1.5)

    @pytest.mark.parametrize("pattern", ["prefix", "smallest-uids"])
    def test_deterministic_patterns_ignore_rng(self, pattern):
        # The wrappers accept rng for signature uniformity but must not
        # let it influence the (deterministic) choice.
        failed = [
            apply_pattern(Network(40, rng=0), pattern, 4, rng=rng).tolist()
            for rng in (None, 0, 12345)
        ]
        assert failed[0] == failed[1] == failed[2]

    def test_unknown_pattern(self):
        net = Network(10, rng=0)
        with pytest.raises(ValueError, match="unknown failure pattern"):
            apply_pattern(net, "bogus", 1)

    def test_cannot_kill_everyone(self):
        net = Network(10, rng=0)
        with pytest.raises(ValueError):
            apply_pattern(net, "prefix", 10)

    def test_negative_count(self):
        net = Network(10, rng=0)
        with pytest.raises(ValueError):
            apply_pattern(net, "random", -1)


COUNT_PATTERNS = ["random", "prefix", "smallest-uids"]


class TestNonIntegerCounts:
    """A count pattern given a non-integer count is a one-line config
    error that points at the fraction pattern, on every entry path."""

    @pytest.mark.parametrize("pattern", COUNT_PATTERNS)
    @pytest.mark.parametrize("count", [0.5, 3.0])
    def test_broadcast_rejects(self, pattern, count):
        with pytest.raises(ValueError, match="failure_pattern='fraction'"):
            broadcast(64, "cluster2", failures=count, failure_pattern=pattern)

    @pytest.mark.parametrize("pattern", COUNT_PATTERNS)
    @pytest.mark.parametrize("count", [0.99, 3.0])
    def test_run_replications_rejects(self, pattern, count):
        with pytest.raises(ValueError, match="failure count must be an integer"):
            run_replications(
                64, "cluster2", reps=2, failures=count, failure_pattern=pattern
            )

    @pytest.mark.parametrize("pattern", COUNT_PATTERNS)
    def test_numpy_integer_counts_still_work(self, pattern):
        net = Network(64, rng=0)
        assert len(apply_pattern(net, pattern, np.int64(3), rng=0)) == 3
        report = broadcast(
            64, "cluster2", failures=np.int32(3), failure_pattern=pattern
        )
        assert int((~report.alive).sum()) == 3
