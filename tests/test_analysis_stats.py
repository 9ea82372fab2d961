"""Tests for repro.analysis.stats."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    ReplicationSummary,
    StreamingSummary,
    Summary,
    mean_ci,
    success_rate,
    summarize,
    wilson_interval,
)


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == 2.0
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert math.isclose(s.std, 1.0)

    def test_single_value(self):
        s = summarize([5])
        assert s.std == 0.0
        assert s.ci95_halfwidth() == 0.0

    def test_empty(self):
        s = summarize([])
        assert s.count == 0
        assert math.isnan(s.mean)

    def test_ci_shrinks_with_count(self):
        narrow = summarize([1.0, 2.0] * 50)
        wide = summarize([1.0, 2.0])
        assert narrow.ci95_halfwidth() < wide.ci95_halfwidth()

    def test_str(self):
        assert "±" in str(summarize([1, 2, 3]))


class TestMeanCi:
    def test_matches_summary(self):
        mean, hw = mean_ci([2.0, 4.0, 6.0])
        s = summarize([2.0, 4.0, 6.0])
        assert mean == s.mean and hw == s.ci95_halfwidth()


class TestSuccessRate:
    def test_rates(self):
        assert success_rate([True, True, False, False]) == 0.5
        assert success_rate([True]) == 1.0
        assert math.isnan(success_rate([]))


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(8, 10)
        assert lo <= 0.8 <= hi

    def test_bounds_clamped(self):
        lo, hi = wilson_interval(10, 10)
        assert hi <= 1.0
        lo, hi = wilson_interval(0, 10)
        assert lo >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)


class TestStreamingMerge:
    """StreamingSummary.merge — the shard combine behind ``workers=``."""

    @staticmethod
    def _stream(values, max_samples=4096):
        s = StreamingSummary(max_samples=max_samples)
        for v in values:
            s.push(v)
        return s

    def test_matches_single_stream_aggregation(self):
        rng = random.Random(0)
        values = [rng.gauss(50.0, 12.0) for _ in range(257)]
        whole = self._stream(values)
        merged = self._stream(values[:100]).merge(self._stream(values[100:]))
        # The moments are exact, so the merge agrees bit for bit.
        assert merged.count == whole.count
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum
        assert merged.mean == whole.mean
        assert merged.variance == whole.variance

    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.integers(min_value=0, max_value=10**6).map(float),
            max_size=30,
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=30), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_sharding_equals_the_serial_stream(self, values, cuts):
        serial = self._stream(values)
        bounds = sorted({0, len(values), *(min(c, len(values)) for c in cuts)})
        merged = StreamingSummary()
        for lo, hi in zip(bounds, bounds[1:]):
            merged.merge(self._stream(values[lo:hi]))
        assert merged.count == serial.count
        assert (merged.minimum, merged.maximum) == (serial.minimum, serial.maximum)
        assert merged.mean == serial.mean
        assert repr(merged.variance) == repr(serial.variance)

    def test_moments_are_correctly_rounded(self):
        rng = random.Random(3)
        values = [rng.gauss(50.0, 12.0) for _ in range(101)]
        exact = [Fraction(v) for v in values]
        k = len(exact)
        mean = sum(exact) / k
        variance = sum((v - mean) ** 2 for v in exact) / (k - 1)
        s = self._stream(values)
        assert (s.mean, s.variance) == (float(mean), float(variance))
        # The exact sum never overflows where a float running sum would.
        assert self._stream([1e308, 1e308, -1e308]).mean == 1e308 / 3

    def test_non_finite_observations_do_not_raise(self):
        s = self._stream([1.0, math.inf, 2.0])
        assert s.mean == math.inf and math.isnan(s.variance)
        assert (s.minimum, s.maximum) == (1.0, math.inf)
        s = self._stream([math.inf, -math.inf])
        assert math.isnan(s.mean) and math.isnan(s.variance)
        s = self._stream([math.nan, 3.0])
        assert math.isnan(s.mean) and s.count == 2
        assert self._stream([1e308, -1e308]).variance == math.inf
        merged = self._stream([1.0]).merge(self._stream([math.inf]))
        assert merged.mean == math.inf

    def test_quantiles_exact_while_buffers_fit(self):
        values = [float(v) for v in range(101)]
        merged = self._stream(values[:40]).merge(self._stream(values[40:]))
        whole = self._stream(values)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert merged.quantile(q) == whole.quantile(q)

    def test_merge_decimates_past_the_memory_bound(self):
        a = self._stream(range(8), max_samples=8)
        b = self._stream(range(8, 16), max_samples=8)
        merged = a.merge(b)
        assert merged.count == 16
        assert len(merged._samples) <= 8 and merged._stride > 1
        # Approximate but sane: the decimated median sits in-range.
        assert 0 <= merged.quantile(0.5) <= 15

    def test_empty_shard_is_identity(self):
        values = [3.0, 1.0, 4.0, 1.5]
        left = self._stream(values).merge(StreamingSummary())
        assert (left.count, left.mean, left.minimum) == (4, 2.375, 1.0)
        right = StreamingSummary().merge(self._stream(values))
        assert (right.count, right.mean, right.maximum) == (4, 2.375, 4.0)
        assert right.quantile(0.5) == 2.25
        both = StreamingSummary().merge(StreamingSummary())
        assert both.count == 0 and math.isnan(both.quantile(0.5))

    def test_single_rep_shards(self):
        merged = self._stream([7.0]).merge(self._stream([9.0]))
        assert merged.count == 2
        assert merged.mean == 8.0
        assert merged.variance == 2.0
        assert (merged.minimum, merged.maximum) == (7.0, 9.0)


class TestReplicationSummaryMerge:
    def test_shards_fold_reps_successes_and_metrics(self):
        def shard(rounds_list, succ):
            s = ReplicationSummary(algorithm="x", n=8, engine="vector")
            for r, ok in zip(rounds_list, succ):
                s.observe(
                    rounds=r, spread_rounds=r, messages_per_node=1.0,
                    bits_per_node=8.0, max_fanin=2, success=ok,
                )
            return s

        a = shard([10.0, 12.0], [True, False])
        b = shard([14.0], [True])
        a.merge(b)
        assert a.reps == 3 and a.successes == 2
        assert a.rounds.count == 3 and a.rounds.mean == 12.0
        # Metrics present only on one side still carry over.
        extra = ReplicationSummary(algorithm="x", n=8, engine="vector")
        extra.metrics["task_error"] = TestStreamingMerge._stream([0.5])
        a.merge(extra)
        assert a.metrics["task_error"].count == 1
