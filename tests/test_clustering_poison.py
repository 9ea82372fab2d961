"""Poison replay of the clustering's view cache.

:class:`~repro.core.clustering.Clustering` derives its masks, index
lists and sizes once per clustering state and serves them from a cache
until ``set_follow`` or a liveness change starts the next state.  Here
the cache is dropped before every view read, so every view is derived
afresh from ``follow`` and liveness, and the sequential fingerprint
corpus and the event-tier pins must still give their pinned digests: a
view served from a stale cache would move one.  The corpus's dynamics
cases include runs whose liveness reconcile (``Clustering._sync``)
rewrites ``follow`` mid-run.
"""

from __future__ import annotations

import numpy as np
import pytest

import test_event_pin as event_pin
import test_fingerprints as fingerprints
from repro.core.clustering import Clustering

#: The algorithms that build a ``Clustering``.
CLUSTERED = ("cluster1", "cluster2", "cluster3", "avin-elsasser")

CASES = [
    (path, case)
    for path, corpus in fingerprints._CORPORA.items()
    for case in corpus["cases"]
    if case["algorithm"] in CLUSTERED
]

EVENT_CASES = sorted(
    name for name, run in event_pin.RUNS.items() if run["algorithm"] in CLUSTERED
)


@pytest.fixture
def poisoned(monkeypatch):
    """Drop the view cache before every view read (every view reconciles
    liveness first); count the reads and the reconciles that rewrote
    ``follow``."""
    counts = {"reads": 0, "rewrites": 0}
    sync = Clustering._sync

    def poisoned_sync(self, force=False):
        before = self._follow.copy()
        sync(self, force)
        counts["rewrites"] += not np.array_equal(before, self._follow)
        counts["reads"] += 1
        self._views = {}

    monkeypatch.setattr(Clustering, "_sync", poisoned_sync)
    return counts


@pytest.mark.parametrize("shape", ["broadcast", "lean-replication"])
@pytest.mark.parametrize(
    "case", [pytest.param(case, id=fingerprints._case_id(path, case)) for path, case in CASES]
)
def test_corpus_replays_with_every_view_derived_afresh(case, shape, poisoned):
    report = fingerprints._execute(case, shape)
    assert fingerprints._fingerprint(report) == case["fingerprint"]
    assert poisoned["reads"] > 0


def test_dynamics_cases_reconcile_follow_mid_run(poisoned):
    dynamic = [case for _, case in CASES if case.get("schedule")]
    assert dynamic
    for case in dynamic:
        report = fingerprints._execute(case, "broadcast")
        assert fingerprints._fingerprint(report) == case["fingerprint"]
    assert poisoned["rewrites"] > 0


@pytest.mark.parametrize("name", EVENT_CASES)
def test_event_pins_replay_with_every_view_derived_afresh(name, poisoned):
    assert event_pin.case_digest(name) == event_pin.DIGESTS[name]
    assert poisoned["reads"] > 0
