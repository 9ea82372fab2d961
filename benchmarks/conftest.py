"""Shared configuration for the benchmark/experiment harness.

Each ``bench_e*.py`` module regenerates one experiment from DESIGN.md §3:
it renders the experiment's table (printed and saved under ``results/``)
and registers a pytest-benchmark timing of a representative run.  Run

    pytest benchmarks/ --benchmark-only

to regenerate everything; the tables land in ``results/E*.txt`` and are
summarised in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import resource
import sys
import time

import pytest

# Allow `from bench_common import ...` within the benchmarks directory.
sys.path.insert(0, os.path.dirname(__file__))


#: Each bench test's start: its clock and how many experiments were
#: emitted before it.
_STARTED = pytest.StashKey[tuple]()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    """Start a bench test's clock before its setup, so the module fixtures
    it triggers (where E1-E10 run their sweeps) count towards the wall
    clock of the experiments it emits."""
    import bench_common

    item.stash[_STARTED] = (time.perf_counter(), len(bench_common.EMITTED_EXPERIMENTS))
    yield


@pytest.fixture(autouse=True)
def _bench_trajectory(request):
    """Stamp a ``BENCH_<exp>.json`` trajectory file for every experiment a
    bench test emits: the test's wall-clock (its setup included), the
    process's peak RSS, and which test produced it.  Benches with richer
    per-rep timings merge them into the same file via
    :func:`bench_common.trajectory_note`.
    """
    import bench_common

    yield
    t0, start = request.node.stash[_STARTED]
    wall = time.perf_counter() - t0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for exp in bench_common.EMITTED_EXPERIMENTS[start:]:
        bench_common.trajectory_note(
            exp,
            config={"module": request.module.__name__, "test": request.node.name},
            wall_clock_s=round(wall, 3),
            peak_rss_mib=round(peak_rss_mib, 1),
        )
