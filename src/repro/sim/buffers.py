"""Reusable scratch arrays for the vector tier's per-round intermediates.

A leaf module (it imports only numpy), so both the clock overlay in
:mod:`repro.sim.schedule` and the task states in :mod:`repro.tasks.state`
can hold a pool without an import cycle.
"""

from __future__ import annotations

import numpy as np


class BufferPool:
    """Reusable scratch arrays for per-round intermediates.

    Lifecycle
    ---------
    A pool is **owned by whoever runs the rounds**, and lives as long as
    its owner:

    * a :class:`~repro.sim.schedule.BatchClockOverlay` keeps one for its
      full rounds' int64 targets and completion matrix — one overlay per
      vector chunk, so one workspace per chunk;
    * a :class:`~repro.tasks.state.PushSumState` keeps one for the
      ``(value, weight)`` halves it stages each round — one state per
      vector chunk on the batch tier.

    Within a round the owner asks the pool for scratch space via
    :meth:`take`; the pool keeps one backing array per ``name`` (grown
    geometrically, never shrunk) and returns an **exact-size view** of
    it.  Nothing is ever zeroed: every byte of a view handed out is
    overwritten by its consumer before it is read (the overlay's
    ``copyto`` / ``complete_full`` and the push-sum staging each fill
    the whole view), so stale data from a previous round can never alias
    into fresh results.  That no-stale-reads contract is what the
    reuse-poisoning test pins: ``tests/test_batch_cluster_pin.py`` fills
    every view as it is handed out and asserts bit-identical outputs.

    Views are only valid until the next :meth:`take` with the same name
    (the overlay finishes with each view inside a single ``full_round``).
    A pool is single-threaded state; parallel sweeps give each worker
    process its own pool.  Pooling changes *where* intermediate arrays
    live, never their values.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def take(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        """An exact-``size`` view of the (grown-to-fit) buffer ``name``.

        The contents are unspecified — callers must fully overwrite the
        view before reading it back.
        """
        buf = self._buffers.get(name)
        if buf is None or len(buf) < size or buf.dtype != np.dtype(dtype):
            capacity = max(size, 2 * len(buf) if buf is not None else size)
            buf = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buf
        return buf[:size]

    def poison(self, fill: int = -(2**31) + 1) -> None:
        """Overwrite every held buffer with ``fill`` (tests only): any
        consumer that reads pooled bytes it did not write this round will
        produce garbage the reuse-poisoning test can detect."""
        for buf in self._buffers.values():
            buf.fill(fill)

    def nbytes(self) -> int:
        """Total bytes currently held (for memory budget reporting)."""
        return sum(buf.nbytes for buf in self._buffers.values())
