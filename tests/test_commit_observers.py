"""Commit observers see the state each round produced.

A task's error recorder and the telemetry sampler are engine commit
hooks: they fire when ``with sim.round(...)`` closes.  So every merge a
round causes (push deliveries, answered pulls, adopted results,
push-sum's estimate refresh) must land inside that round's block;
otherwise row t of a series shows the state before round t's
deliveries.  These tests hold the sequential tier to that: the last
error sample is the reported error, a converged run knows its
completion round, and the ``informed`` probe reaches 1.0 exactly at the
reported spread.
"""

import pytest

from repro.core.broadcast import broadcast
from repro.obs.telemetry import Telemetry

N = 256

#: Adversities that leave liveness unchanged between a round's commit
#: and the report.  Churn may crash or revive a node at that boundary,
#: after the last sample was taken, so it is left out here.
SETTINGS = {
    "static": {},
    "failures": dict(failures=24),
    "lossy": dict(schedule="lossy-datacenter"),
    "event": dict(scheduler="event"),
}


@pytest.mark.parametrize("task", ["k-rumor", "push-sum", "min-max"])
@pytest.mark.parametrize("algorithm", ["push", "push-pull", "cluster1", "cluster2"])
def test_error_series_ends_at_the_reported_error(algorithm, task):
    converged = 0
    for setting in SETTINGS.values():
        for seed in range(2):
            report = broadcast(N, algorithm, seed=seed, task=task, **setting)
            if not report.extras["converged"]:
                continue
            converged += 1
            assert report.extras["completion_round"] is not None
            assert report.metrics.error_series[-1] == (
                report.rounds,
                report.extras["task_error"],
            )
    assert converged  # a grid without a converged run would check nothing


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("algorithm", ["push", "pull", "push-pull", "median-counter"])
def test_informed_reaches_one_at_the_spread_round(algorithm, setting):
    telemetry = Telemetry()
    report = broadcast(
        N, algorithm, seed=3, telemetry=telemetry, **SETTINGS[setting]
    )
    assert report.success
    (series,) = [r for r in telemetry.records() if r["type"] == "series"]
    columns = series["columns"]
    first = next(
        t
        for t, informed in zip(columns["round"], columns["informed"])
        if informed == 1.0
    )
    assert first == report.spread_rounds
