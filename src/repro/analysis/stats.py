"""Summary statistics for repeated randomized runs.

The paper's guarantees are w.h.p. statements; empirically we run each
configuration across several seeds and report mean, spread, and a normal
approximation confidence interval.  (Seeds are few, so the CIs are coarse
guides, not rigorous bounds — benches report them alongside min/max.)

For large replication suites (hundreds of seeds) the batch helpers above
are joined by **streaming** aggregation: :class:`StreamingSummary` folds
one observation at a time into an exact sum and sum of squares (rounded
once, when the mean or variance is read) plus a compact scalar buffer
for quantiles, and :class:`ReplicationSummary` groups one such stream
per figure of merit.  A 500-seed suite therefore never materialises 500
records — each replication is reduced to a handful of numbers the moment
it finishes — and a summary is the same whether it was folded serially
or merged from shards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    def ci95_halfwidth(self) -> float:
        """Half-width of the normal-approximation 95% CI of the mean."""
        if self.count <= 1:
            return float("inf") if self.count == 0 else 0.0
        return 1.96 * self.std / math.sqrt(self.count)

    def __str__(self) -> str:
        return (
            f"{self.mean:.3f} ± {self.ci95_halfwidth():.3f} "
            f"[{self.minimum:.3f}, {self.maximum:.3f}] (k={self.count})"
        )


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` (sample std, ddof=1)."""
    vals = [float(v) for v in values]
    if not vals:
        return Summary(0, float("nan"), float("nan"), float("nan"), float("nan"))
    k = len(vals)
    mean = sum(vals) / k
    if k == 1:
        std = 0.0
    else:
        std = math.sqrt(sum((v - mean) ** 2 for v in vals) / (k - 1))
    return Summary(k, mean, std, min(vals), max(vals))


def mean_ci(values: Sequence[float]) -> "tuple[float, float]":
    """(mean, 95% CI half-width)."""
    s = summarize(values)
    return s.mean, s.ci95_halfwidth()


def success_rate(flags: Sequence[bool]) -> float:
    """Fraction of successful runs."""
    flags = list(flags)
    if not flags:
        return float("nan")
    return sum(bool(f) for f in flags) / len(flags)


class StreamingSummary:
    """Online summary of a scalar stream, exact in any reduction order.

    ``push(x)`` folds one observation in O(1).  Every finite float is a
    dyadic rational ``m / 2**k``, so the sum and the sum of squares
    accumulate *exactly*, as integers scaled by the stream's largest
    ``2**k`` so far; :attr:`mean` and :attr:`variance` round once, when
    read.  Merging shards then only adds integers, so a stream folded
    serially and the same observations merged from shards in any
    grouping give identical means and variances — the sharded
    ``workers=`` runs of :func:`~repro.core.broadcast.run_replications`
    equal the serial one to the last bit.  Non-finite observations are
    summed apart, in float: they make the mean non-finite and the
    variance ``nan``, without raising.

    Quantiles need *some* memory; a compact scalar buffer keeps up to
    ``max_samples`` raw values (8 bytes each — nothing like the records
    they came from) and beyond that decimates deterministically by
    keeping every k-th observation, so the quantile estimate stays
    unbiased for exchangeable replication streams while memory stays
    bounded.
    """

    def __init__(self, max_samples: int = 4096) -> None:
        if max_samples < 2:
            raise ValueError("max_samples must be at least 2")
        self.count = 0
        # Exact moments of the finite observations: their sum is
        # _sum / 2**_scale and their sum of squares _sumsq / 4**_scale.
        self._sum = 0
        self._sumsq = 0
        self._scale = 0
        self._nonfinite = 0.0  # float sum of the inf/nan observations
        self.minimum = math.inf
        self.maximum = -math.inf
        self._max_samples = max_samples
        self._samples: List[float] = []
        self._stride = 1  # keep every _stride-th observation for quantiles

    def _rescale(self, scale: int) -> None:
        """Raise the shared power-of-two scale to ``2**scale``."""
        up = scale - self._scale
        if up > 0:
            self._sum <<= up
            self._sumsq <<= 2 * up
            self._scale = scale

    def push(self, value: float) -> None:
        """Fold one observation into the stream."""
        x = float(value)
        self.count += 1
        if math.isfinite(x):
            num, den = x.as_integer_ratio()
            scale = den.bit_length() - 1
            self._rescale(scale)
            num <<= self._scale - scale
            self._sum += num
            self._sumsq += num * num
        else:
            self._nonfinite += x
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x
        if (self.count - 1) % self._stride == 0:
            if len(self._samples) >= self._max_samples:
                # Decimate: halve the buffer, double the stride.
                self._samples = self._samples[::2]
                self._stride *= 2
            self._samples.append(x)

    @property
    def mean(self) -> float:
        """Arithmetic mean, correctly rounded (0.0 for an empty stream)."""
        if not self.count:
            return 0.0
        if not math.isfinite(self._nonfinite):
            return self._nonfinite
        return self._sum / (self.count << self._scale)

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1), correctly rounded."""
        if self.count < 2:
            return 0.0 if self.count == 1 else float("nan")
        if not math.isfinite(self._nonfinite):
            return float("nan")
        k = self.count
        try:
            return (k * self._sumsq - self._sum * self._sum) / (
                (k * (k - 1)) << (2 * self._scale)
            )
        except OverflowError:  # finite observations, variance past float range
            return math.inf

    @property
    def std(self) -> float:
        return math.sqrt(self.variance) if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Empirical quantile (linear interpolation) of the kept samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if not self._samples:
            return float("nan")
        ordered = sorted(self._samples)
        pos = q * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return ordered[lo]
        frac = pos - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def merge(self, other: "StreamingSummary") -> "StreamingSummary":
        """Fold another stream's state into this one (shard combine).

        Count, extremes and the exact moments add, so mean and variance
        equal single-stream aggregation of the concatenated
        observations bit for bit, in any merge order.  The quantile
        buffers concatenate and then decimate back under the memory
        bound, so quantiles remain what they already were: exact while
        everything fits at stride 1, approximate beyond.  Returns
        ``self``.
        """
        self._rescale(other._scale)
        up = self._scale - other._scale
        self._sum += other._sum << up
        self._sumsq += other._sumsq << (2 * up)
        self._nonfinite += other._nonfinite
        self.count += other.count
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self._samples = self._samples + list(other._samples)
        self._stride = max(self._stride, other._stride)
        while len(self._samples) > self._max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2
        return self

    def to_summary(self) -> Summary:
        """Freeze into the batch :class:`Summary` shape."""
        if self.count == 0:
            return Summary(0, float("nan"), float("nan"), float("nan"), float("nan"))
        return Summary(self.count, self.mean, self.std, self.minimum, self.maximum)

    def __str__(self) -> str:
        return str(self.to_summary())


#: The figures of merit a replication stream tracks, in display order.
REPLICATION_METRICS = (
    "rounds",
    "spread_rounds",
    "messages_per_node",
    "bits_per_node",
    "max_fanin",
)


@dataclass
class ReplicationSummary:
    """Streamed aggregate of R replications of one configuration.

    One :class:`StreamingSummary` per figure of merit plus a success
    tally; :meth:`observe` consumes one replication's scalars and
    discards them.  This is the return shape of
    :func:`repro.core.broadcast.run_replications` — the whole point is
    that its memory footprint is independent of the replication count.
    """

    algorithm: str
    n: int
    engine: str = "reset"
    #: Workload semantics of the replicated configuration (the implicit
    #: single-rumor broadcast unless a task was requested).
    task: str = "broadcast"
    metrics: Dict[str, StreamingSummary] = field(
        default_factory=lambda: {m: StreamingSummary() for m in REPLICATION_METRICS}
    )
    successes: int = 0
    reps: int = 0
    #: Run-level annotations that are not per-replication streams — e.g.
    #: ``engine_fallback``, the reason ``engine="auto"`` ran a
    #: configuration on the reset engine (recorded on every fallback).
    extras: Dict[str, object] = field(default_factory=dict)

    def observe(
        self,
        *,
        rounds: float,
        spread_rounds: float,
        messages_per_node: float,
        bits_per_node: float,
        max_fanin: float,
        success: bool,
        task_error: Optional[float] = None,
        task_error_repaired: Optional[float] = None,
        sim_time: Optional[float] = None,
        critical_path_len: Optional[float] = None,
        dilation: Optional[float] = None,
    ) -> None:
        """Fold one replication's headline figures into the stream.

        ``task_error`` (aggregation tasks only) opens a lazily created
        ``"task_error"`` stream — broadcast-shaped replications never
        carry one, so their summaries stay shape-identical to before the
        task layer.  ``task_error_repaired`` (push-sum under dynamics:
        the error against the surviving-mass target rather than the
        initial mean) opens a second lazy stream the same way, so
        summaries always report the biased and repaired estimates side
        by side.  ``sim_time`` (event-tier replications only — the
        simulated completion time) opens a third lazy stream with the
        same round-tier-stays-identical property.
        """
        self.reps += 1
        self.successes += bool(success)
        values = {
            "rounds": rounds,
            "spread_rounds": spread_rounds,
            "messages_per_node": messages_per_node,
            "bits_per_node": bits_per_node,
            "max_fanin": max_fanin,
        }
        if task_error is not None:
            values["task_error"] = task_error
            self.metrics.setdefault("task_error", StreamingSummary())
        if task_error_repaired is not None:
            values["task_error_repaired"] = task_error_repaired
            self.metrics.setdefault("task_error_repaired", StreamingSummary())
        if sim_time is not None:
            values["sim_time"] = sim_time
            self.metrics.setdefault("sim_time", StreamingSummary())
        # Traced event-tier replications only (broadcast(trace=True)):
        # critical-path hop count and sim_time/rounds dilation streams.
        if critical_path_len is not None:
            values["critical_path_len"] = critical_path_len
            self.metrics.setdefault("critical_path_len", StreamingSummary())
        if dilation is not None:
            values["dilation"] = dilation
            self.metrics.setdefault("dilation", StreamingSummary())
        for name, value in values.items():
            self.metrics[name].push(value)

    def merge(self, other: "ReplicationSummary") -> "ReplicationSummary":
        """Fold another summary (one shard of the same configuration)
        into this one in place; metric streams combine via
        :meth:`StreamingSummary.merge`.  Returns ``self``."""
        self.reps += other.reps
        self.successes += other.successes
        for name, stream in other.metrics.items():
            self.metrics.setdefault(name, StreamingSummary()).merge(stream)
        self.extras.update(other.extras)
        return self

    @property
    def success_rate(self) -> float:
        return self.successes / self.reps if self.reps else float("nan")

    def success_interval(self, z: float = 1.96) -> "tuple[float, float]":
        """Wilson interval of the success probability."""
        return wilson_interval(self.successes, self.reps, z)

    def __getattr__(self, name: str) -> StreamingSummary:
        # Convenience: summary.spread_rounds is the per-metric stream.
        try:
            return self.__dict__["metrics"][name]
        except KeyError:
            raise AttributeError(name) from None

    def row(self) -> Dict[str, object]:
        """Flat dict for result tables."""
        spread = self.metrics["spread_rounds"]
        msgs = self.metrics["messages_per_node"]
        row = {
            "algorithm": self.algorithm,
            "n": self.n,
            "reps": self.reps,
            "engine": self.engine,
            "task": self.task,
            "spread_mean": round(spread.mean, 3),
            "spread_q50": round(spread.quantile(0.5), 3),
            "spread_q90": round(spread.quantile(0.9), 3),
            "msgs_per_node_mean": round(msgs.mean, 3),
            "max_fanin": self.metrics["max_fanin"].maximum,
            "success_rate": round(self.success_rate, 4),
        }
        err = self.metrics.get("task_error")
        if err is not None:
            row["task_error_mean"] = err.mean
            row["task_error_max"] = err.maximum
        repaired = self.metrics.get("task_error_repaired")
        if repaired is not None:
            row["task_error_repaired_mean"] = repaired.mean
            row["task_error_repaired_max"] = repaired.maximum
        sim_time = self.metrics.get("sim_time")
        if sim_time is not None:
            row["sim_time_mean"] = round(sim_time.mean, 3)
            row["sim_time_max"] = round(sim_time.maximum, 3)
        path_len = self.metrics.get("critical_path_len")
        if path_len is not None:
            row["critical_path_len_mean"] = round(path_len.mean, 3)
            row["critical_path_len_max"] = round(path_len.maximum, 3)
        dilation = self.metrics.get("dilation")
        if dilation is not None:
            row["dilation_mean"] = round(dilation.mean, 3)
            row["dilation_max"] = round(dilation.maximum, 3)
        return row

    def __str__(self) -> str:
        lo, hi = self.success_interval() if self.reps else (float("nan"),) * 2
        spread = self.metrics["spread_rounds"]
        return (
            f"{self.algorithm}(n={self.n}) x{self.reps} [{self.engine}]: "
            f"spread {spread.mean:.2f} (q50 {spread.quantile(0.5):.1f}, "
            f"q90 {spread.quantile(0.9):.1f}), "
            f"msgs/node {self.metrics['messages_per_node'].mean:.2f}, "
            f"success {self.success_rate:.3f} [wilson {lo:.3f}, {hi:.3f}]"
        )


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> "tuple[float, float]":
    """Wilson score interval for a success probability.

    Preferred over the normal interval at the small trial counts used in
    the w.h.p. success-rate checks.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return max(0.0, centre - half), min(1.0, centre + half)
