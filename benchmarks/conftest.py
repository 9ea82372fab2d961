"""Shared configuration for the benchmark/experiment harness.

Each ``bench_e*.py`` module regenerates one experiment from DESIGN.md §3:
it renders the experiment's table (printed and saved under ``results/``)
and registers a pytest-benchmark timing of a representative run.  Run

    pytest benchmarks/ --benchmark-only

to regenerate everything; the tables land in ``results/E*.txt`` and are
summarised in EXPERIMENTS.md.
"""

from __future__ import annotations

import ctypes
import gc
import os
import resource
import sys
import threading
import time

import pytest

# Allow `from bench_common import ...` within the benchmarks directory.
sys.path.insert(0, os.path.dirname(__file__))


#: Each bench test's start: its clock, how many experiments were emitted
#: before it, and the sampler of its resident set.
_STARTED = pytest.StashKey[tuple]()


class PeakRss:
    """The peak resident set of this process while it runs, in MiB.

    ``ru_maxrss`` never falls within a process, so it would stamp every
    bench with the largest one before it.  This samples
    ``/proc/self/statm`` from a thread instead (it reads and writes
    nothing else); where that file is missing it falls back to
    ``ru_maxrss``.  It starts by handing the heap that earlier benches
    freed back to the OS (glibc keeps it otherwise), so a bench's peak
    is close to what it reaches in a process of its own.
    """

    INTERVAL_S = 0.005

    def __init__(self) -> None:
        gc.collect()
        try:
            malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
        except (OSError, AttributeError):
            pass  # not glibc: the peak keeps what earlier benches freed
        else:
            malloc_trim.argtypes = [ctypes.c_size_t]
            malloc_trim.restype = ctypes.c_int
            malloc_trim(0)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._done = threading.Event()
        self.peak = self._rss()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _rss(self) -> int:
        try:
            with open("/proc/self/statm") as statm:
                return int(statm.read().split()[1]) * self._page
        except OSError:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    def _sample(self) -> None:
        while not self._done.wait(self.INTERVAL_S):
            self.peak = max(self.peak, self._rss())

    def stop(self) -> float:
        self._done.set()
        self._thread.join()
        return max(self.peak, self._rss()) / 2**20


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    """Start a bench test's clock and memory sampler before its setup, so
    the module fixtures it triggers (where E1-E10 run their sweeps) count
    towards the wall clock and peak memory of the experiments it emits."""
    import bench_common

    rss = PeakRss()  # its garbage collection and trim stay off the clock
    item.stash[_STARTED] = (time.perf_counter(), len(bench_common.EMITTED_EXPERIMENTS), rss)
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    """Stop the sampler also when a fixture failed before the stamp ran."""
    yield
    item.stash[_STARTED][2].stop()


@pytest.fixture(autouse=True)
def _bench_trajectory(request):
    """Stamp a ``BENCH_<exp>.json`` trajectory file for every experiment a
    bench test emits: the test's wall-clock and peak RSS (its setup
    included), and which test produced it.  Benches with richer per-rep
    timings merge them into the same file via
    :func:`bench_common.trajectory_note`.
    """
    import bench_common

    yield
    t0, start, rss = request.node.stash[_STARTED]
    wall = time.perf_counter() - t0
    peak_rss_mib = rss.stop()
    for exp in bench_common.EMITTED_EXPERIMENTS[start:]:
        bench_common.trajectory_note(
            exp,
            config={"module": request.module.__name__, "test": request.node.name},
            wall_clock_s=round(wall, 3),
            peak_rss_mib=round(peak_rss_mib, 1),
        )
