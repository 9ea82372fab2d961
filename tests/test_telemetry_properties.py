"""Property tests for telemetry probe accuracy (Hypothesis).

The contract under test: the **final row** of a run's probe series is an
exact census, not an estimate.  Whatever the probe cadence and however
aggressively the bounded :class:`RoundSeries` decimates, the forced final
sample's ``round``, ``messages`` and ``bits`` must equal the final
:class:`Metrics` counters (sequential engines) or the summed
:class:`BatchOutcome` totals (vector engines) — on static networks and
under adversarial dynamics alike.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.broadcast import broadcast, run_replications
from repro.obs import Telemetry

algorithms = st.sampled_from(["push-pull", "cluster2"])
#: (algorithm, task) of the vector runners held to the contract: both
#: broadcast runners and push-pull's three task runners.
vector_runs = st.sampled_from([
    ("push-pull", "broadcast"),
    ("cluster2", "broadcast"),
    ("push-pull", "push-sum"),
    ("push-pull", "k-rumor"),
    ("push-pull", "min-max"),
])
seeds = st.integers(min_value=0, max_value=2**31 - 1)
probe_everys = st.integers(min_value=1, max_value=7)
# Small caps force decimation so the final forced sample is load-bearing.
series_caps = st.sampled_from([8, 16, 2048])


def _final_row(tel: Telemetry):
    assert len(tel.runs) == 1
    return tel.runs[0].series.last()


class TestSequentialEngine:
    @settings(max_examples=15, deadline=None)
    @given(algorithm=algorithms, seed=seeds, probe_every=probe_everys,
           cap=series_caps)
    def test_static_final_row_matches_metrics(self, algorithm, seed,
                                              probe_every, cap):
        tel = Telemetry(probe_every=probe_every, series_cap=cap)
        report = broadcast(n=128, algorithm=algorithm, seed=seed,
                           telemetry=tel)
        row = _final_row(tel)
        assert row["round"] == report.metrics.rounds
        assert row["messages"] == report.metrics.messages
        assert row["bits"] == report.metrics.bits

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, probe_every=probe_everys,
           crashes=st.integers(min_value=1, max_value=32))
    def test_dynamic_final_row_matches_metrics(self, seed, probe_every,
                                               crashes):
        tel = Telemetry(probe_every=probe_every, series_cap=16)
        report = broadcast(
            n=128, algorithm="push-pull", seed=seed,
            schedule=f"crash@3:{crashes}", telemetry=tel,
        )
        row = _final_row(tel)
        assert row["round"] == report.metrics.rounds
        assert row["messages"] == report.metrics.messages
        assert row["bits"] == report.metrics.bits
        # Crashed nodes really left the probe's view of the network.
        alive = tel.runs[0].series.to_columns()["alive"]
        assert alive[-1] == 128 - crashes


class TestVectorEngine:
    @settings(max_examples=8, deadline=None)
    @given(run=vector_runs, seed=seeds, probe_every=probe_everys,
           reps=st.integers(min_value=1, max_value=5), cap=series_caps)
    # Every task runner, whatever the draws above sample.
    @example(run=("push-pull", "push-sum"), seed=3, probe_every=2, reps=4, cap=8)
    @example(run=("push-pull", "k-rumor"), seed=4, probe_every=3, reps=3, cap=8)
    @example(run=("push-pull", "min-max"), seed=5, probe_every=1, reps=5, cap=16)
    def test_final_row_matches_outcome(self, run, seed, probe_every,
                                       reps, cap):
        algorithm, task = run
        tel = Telemetry(probe_every=probe_every, series_cap=cap)
        summary = run_replications(
            128, algorithm, task=task, reps=reps, base_seed=seed,
            engine="vector", telemetry=tel,
        )
        row = _final_row(tel)
        # The series accumulates per-step sums inside the batch runner;
        # run.summary totals come from the BatchOutcome arrays.  They
        # must agree exactly with each other and with the streamed
        # replication summary's round extremum.
        run_summary = tel.runs[0].summary
        assert row["messages"] == run_summary["messages_total"]
        assert row["bits"] == run_summary["bits_total"]
        assert row["round"] == summary.metrics["rounds"].maximum

    @settings(max_examples=6, deadline=None)
    @given(seed=seeds, probe_every=probe_everys)
    def test_push_sum_task_final_row(self, seed, probe_every):
        tel = Telemetry(probe_every=probe_every, series_cap=16)
        run_replications(
            128, "push-pull", task="push-sum", reps=3, base_seed=seed,
            engine="vector", telemetry=tel,
        )
        row = _final_row(tel)
        run_summary = tel.runs[0].summary
        assert row["messages"] == run_summary["messages_total"]
        assert row["bits"] == run_summary["bits_total"]


class TestEngineAgreement:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000),
           probe_every=probe_everys)
    def test_reset_engine_series_sum_to_summary(self, seed, probe_every):
        tel = Telemetry(probe_every=probe_every, series_cap=16)
        summary = run_replications(
            128, "cluster2", reps=3, base_seed=seed, engine="reset",
            telemetry=tel,
        )
        assert len(tel.runs) == 3
        for run in tel.runs:
            # Each replication's forced final sample agrees with the
            # Metrics counters captured into that run's summary.
            final = run.series.last()
            assert final["round"] == run.summary["rounds"]
            assert final["messages"] == run.summary["messages"]
            assert final["bits"] == run.summary["bits"]
        rounds_stream = summary.metrics["rounds"]
        assert max(r.summary["rounds"] for r in tel.runs) == rounds_stream.maximum
        assert min(r.summary["rounds"] for r in tel.runs) == rounds_stream.minimum
