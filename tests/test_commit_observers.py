"""Commit observers see the state each round produced.

A task's error recorder and the telemetry sampler are engine commit
hooks: they fire when ``with sim.round(...)`` closes.  So every merge a
round causes (push deliveries, answered pulls, adopted results,
push-sum's estimate refresh) must land inside that round's block;
otherwise row t of a series shows the state before round t's
deliveries.  These tests hold the sequential tier to that: the last
error sample is the reported error, a converged run knows its
completion round, and the ``informed`` probe reaches 1.0 exactly at the
reported spread.  Under churn the report and the last series row read
the liveness the last round ran under, not the next round's crashes.
"""

import pytest

from repro.core.broadcast import broadcast
from repro.obs.telemetry import Telemetry
from repro.sim.dynamics import AdversitySchedule, CrashAt, resolve_schedule

N = 512

SETTINGS = {
    "static": {},
    "failures": dict(failures=24),
    "lossy": dict(schedule="lossy-datacenter"),
    "churn-heavy": dict(schedule="churn-heavy"),
    "event": dict(scheduler="event"),
}


@pytest.mark.parametrize("task", ["k-rumor", "push-sum", "min-max"])
@pytest.mark.parametrize("algorithm", ["push", "push-pull", "cluster1", "cluster2"])
def test_error_series_ends_at_the_reported_error(algorithm, task):
    converged = 0
    for setting in SETTINGS.values():
        for seed in range(4):
            report = broadcast(N, algorithm, seed=seed, task=task, **setting)
            assert report.metrics.error_series[-1] == (
                report.rounds,
                report.extras["task_error"],
            )
            if report.extras["converged"]:
                converged += 1
                assert report.extras["completion_round"] is not None
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
    # The last row and the report describe the same world: the one the
    # last round ran in.
    assert columns["alive"][-1] == int(report.alive.sum())


def _last_row(algorithm, seed, schedule, probe_every, **kwargs):
    telemetry = Telemetry(probe_every=probe_every)
    report = broadcast(
        N, algorithm, seed=seed, telemetry=telemetry, schedule=schedule, **kwargs
    )
    (series,) = [r for r in telemetry.records() if r["type"] == "series"]
    return report, {name: column[-1] for name, column in series["columns"].items()}


@pytest.mark.parametrize(
    "algorithm,task", [("cluster1", None), ("cluster2", None), ("cluster2", "k-rumor")]
)
def test_last_row_describes_the_last_round_at_any_probe_rate(algorithm, task):
    """A sampler that skipped the last round takes the last row once the
    run has ended.  Even with all but one node crashed right after the
    last round (churn-heavy plus one more event), that row must equal
    the one an every-round sampler took at the last commit, ``clusters``
    included."""
    kwargs = {} if task is None else {"task": task}
    churn = resolve_schedule("churn-heavy")
    checked = 0
    for seed in range(4):
        report, want = _last_row(algorithm, seed, churn, 1, **kwargs)
        if report.rounds % 3 == 0:
            continue  # the every-third-round sampler took the last row itself
        wipe = AdversitySchedule(churn.events + (CrashAt(round=report.rounds, count=N),))
        again, got = _last_row(algorithm, seed, wipe, 3, **kwargs)
        assert again.rounds == report.rounds
        assert got == want
        checked += 1
    assert checked
