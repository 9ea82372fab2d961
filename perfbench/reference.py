"""A fixed reference kernel that measures how fast the host runs right now.

Benchmark hosts are often shared: other tenants can slow one by 20-40%
for minutes at a time, and a workload's throughput moves with them.  The
kernel does a fixed amount of the same kinds of work the simulator does
(NumPy gathers, scatter counts and sorts over arrays as large as the
workload's, and a pure-Python loop) but calls nothing in the
simulator, so a change to the simulator cannot change its time.  Timed
between the workload's calls, it gives the host speed that the
workload's time is divided by.
"""

from __future__ import annotations

import numpy as np

#: Elements per replication chunk of the vector engine
#: (``repro.sim.batch.DEFAULT_BATCH_ELEMS``).
CHUNK_ELEMS = 2**16
#: Iterations of the pure-Python part.
PY_ITERS = 20_000


class ReferenceKernel:
    """Fixed work over arrays of ``CHUNK_ELEMS`` and of
    ``max(size, CHUNK_ELEMS)`` elements, ``size`` being the workload's
    largest arrays (so part of the kernel sits in the same cache level
    as the workload's chunks), plus a pure-Python loop.
    The three parts slow differently when the host is busy; together
    they track the workloads more closely than any one alone.

    Every array, outputs included, is allocated here once and the kernel
    writes into them in place, so its time does not depend on the
    allocator or page-fault state that the workload's call leaves behind."""

    def __init__(self, size: int) -> None:
        rng = np.random.default_rng(20140715)
        self.parts = []
        for elems in (CHUNK_ELEMS, max(size, CHUNK_ELEMS)):
            index = rng.integers(0, elems, size=elems)
            values = rng.random(elems)
            gathered = np.empty(elems)
            counts = np.zeros(elems, dtype=np.int64)
            ordered = np.empty(elems // 4)
            self.parts.append((index, values, gathered, counts, ordered))

    def __call__(self) -> int:
        check = 0
        for index, values, gathered, counts, ordered in self.parts:
            np.take(values, index, out=gathered)
            counts.fill(0)
            np.add.at(counts, index, 1)
            np.copyto(ordered, gathered[: ordered.size])
            ordered.sort(kind="stable")
            check += int(counts[index[0]]) + int(ordered[0] < 0.5)
        table: dict = {}
        for i in range(PY_ITERS):
            key = i & 1023
            table[key] = table.get(key, 0) + i
            check += key
        return check + len(table)
