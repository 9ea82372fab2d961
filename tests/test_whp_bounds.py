"""Statistical acceptance tests for the paper's w.h.p. guarantees.

Each class streams >= 50 replications of one configuration through the
replication layer (:func:`repro.core.broadcast.run_replications`) and
asserts the *empirical* success rate and round quantiles against the
paper's bound **shapes** with explicit margins — no bare pinned
constants:

* PUSH-PULL completes in ``log3 n + O(log log n)`` rounds w.h.p.
  (Karp et al. [10]); the q90 margin is ``2 * log2 log2 n`` on top of
  the ``log3 n`` leading term, and no replication may beat the
  ``log3 n - 1`` information-theoretic spreading floor.
* Cluster2 (the paper's Theorem 1 algorithm) completes in ``O(log n)``
  rounds with ``O(log log n)`` messages per node w.h.p.; the constants
  below (C_ROUNDS, C_MSGS) are the documented acceptance envelope —
  roughly 1.3x the observed q90 at calibration time, so a constant-factor
  regression trips them while seed noise does not.

Success-rate assertions use the Wilson interval (the paper's "w.h.p."
at these n means failures should be rare-to-absent): the observed rate
must stay >= MIN_SUCCESS_RATE and its Wilson lower bound above
MIN_WILSON_LOWER.

``REPRO_WHP_REPS`` scales the replication count (CI's slow job runs
hundreds); ``REPRO_WHP_ARTIFACT`` names a JSON file to dump the
aggregates into for CI artifacts.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.core.broadcast import run_replications

REPS = max(int(os.environ.get("REPRO_WHP_REPS", "50")), 50)

#: Explicit acceptance margins (see module docstring).
MIN_SUCCESS_RATE = 0.95
MIN_WILSON_LOWER = 0.85
PUSH_PULL_LOGLOG_MARGIN = 2.0
CLUSTER2_C_ROUNDS = 8.0
CLUSTER2_C_MSGS = 8.0

_ARTIFACT: dict = {}


def _record_artifact(name: str, summary) -> None:
    _ARTIFACT[name] = summary.row() | {
        "spread_q99": summary.spread_rounds.quantile(0.99),
        "spread_max": summary.spread_rounds.maximum,
        "wilson_lower": summary.success_interval()[0],
    }


def _assert_success(summary) -> None:
    lower, _ = summary.success_interval()
    assert summary.success_rate >= MIN_SUCCESS_RATE, (
        f"success rate {summary.success_rate:.3f} over {summary.reps} reps "
        f"is below the {MIN_SUCCESS_RATE} w.h.p. acceptance floor"
    )
    assert lower >= MIN_WILSON_LOWER, (
        f"Wilson lower bound {lower:.3f} below {MIN_WILSON_LOWER}"
    )


class TestPushPullWhp:
    N = 2**10

    @pytest.fixture(scope="class")
    def summary(self):
        s = run_replications(self.N, "push-pull", reps=REPS, engine="vector")
        _record_artifact("push-pull", s)
        return s

    def test_success_rate(self, summary):
        assert summary.reps >= 50
        _assert_success(summary)

    def test_round_quantiles_match_log3_plus_loglog(self, summary):
        log3n = math.log(self.N) / math.log(3)
        loglog = math.log2(math.log2(self.N))
        upper = log3n + PUSH_PULL_LOGLOG_MARGIN * loglog
        spread = summary.spread_rounds
        assert spread.quantile(0.9) <= upper, (
            f"q90 spread {spread.quantile(0.9):.1f} exceeds "
            f"log3 n + {PUSH_PULL_LOGLOG_MARGIN} log log n = {upper:.1f}"
        )
        # Nothing spreads faster than the doubling floor: every quantile
        # sits above log3 n - 1.
        assert spread.minimum >= log3n - 1

    def test_message_complexity_is_theta_log_n(self, summary):
        log2n = math.log2(self.N)
        mean = summary.messages_per_node.mean
        assert 0.5 * log2n <= mean <= 2.0 * log2n, (
            f"PUSH-PULL msgs/node {mean:.2f} outside the Theta(log n) "
            f"envelope [{0.5 * log2n:.1f}, {2 * log2n:.1f}]"
        )


class TestCluster2Whp:
    N = 2**10

    @pytest.fixture(scope="class")
    def summary(self):
        # Deliberately pinned to the sequential reset engine: it is the
        # fingerprint-bearing reference the whp corpus was recorded on.
        # The batched cluster runner has its own envelope checks in
        # tests/test_batch_cluster.py and benchmarks/bench_vector_cluster.py.
        s = run_replications(self.N, "cluster2", reps=REPS, engine="reset")
        _record_artifact("cluster2", s)
        return s

    def test_success_rate(self, summary):
        assert summary.reps >= 50
        assert summary.engine == "reset"
        _assert_success(summary)

    def test_round_quantiles_are_o_log_n(self, summary):
        log2n = math.log2(self.N)
        spread = summary.spread_rounds
        assert spread.quantile(0.9) <= CLUSTER2_C_ROUNDS * log2n, (
            f"q90 spread {spread.quantile(0.9):.1f} exceeds "
            f"{CLUSTER2_C_ROUNDS} log2 n = {CLUSTER2_C_ROUNDS * log2n:.0f}"
        )
        # Informing n nodes takes at least ~log2 n doubling rounds.
        assert spread.minimum >= log2n - 1

    def test_message_complexity_is_o_log_log_n(self, summary):
        loglog = math.log2(math.log2(self.N))
        mean = summary.messages_per_node.mean
        assert mean <= CLUSTER2_C_MSGS * loglog, (
            f"Cluster2 msgs/node {mean:.2f} exceeds "
            f"{CLUSTER2_C_MSGS} log log n = {CLUSTER2_C_MSGS * loglog:.1f} — "
            "the O(n log log n) total-message guarantee looks broken"
        )


def test_streaming_never_materialises_records():
    """The aggregation really is streaming: the summary retains running
    moments and a bounded scalar buffer, not reports or records."""
    seen = []
    s = run_replications(
        256, "push-pull", reps=60, engine="vector", consume=lambda rec: seen.append(rec)
    )
    assert s.reps == 60 and len(seen) == 60
    assert all(isinstance(rec["spread_rounds"], int) for rec in seen)
    # The running moments agree with a direct computation over the stream.
    spreads = [rec["spread_rounds"] for rec in seen]
    mean = sum(spreads) / len(spreads)
    var = sum((x - mean) ** 2 for x in spreads) / (len(spreads) - 1)
    assert s.spread_rounds.mean == pytest.approx(mean)
    assert s.spread_rounds.variance == pytest.approx(var)


@pytest.fixture(scope="session", autouse=True)
def _dump_artifact():
    yield
    path = os.environ.get("REPRO_WHP_ARTIFACT")
    if path and _ARTIFACT:
        with open(path, "w") as fh:
            json.dump(
                {"reps": REPS, "configurations": _ARTIFACT},
                fh,
                indent=2,
                sort_keys=True,
                default=str,
            )
