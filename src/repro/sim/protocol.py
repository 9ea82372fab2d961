"""Vectorised per-round protocol runner for baseline gossip algorithms.

The cluster algorithms of the paper are phase-structured and drive the
engine directly.  The classic baselines (PUSH, PULL, PUSH-PULL,
median-counter, ...) are *uniform* protocols: every node runs the same
little state machine each round.  :class:`VectorProtocol` captures that
shape — a protocol advances the whole network one round at a time over
numpy state arrays — and :func:`run_protocol` is the driver loop with a
round cap and termination predicate.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.sim.batch import check_max_rounds
from repro.sim.engine import Simulator


class VectorProtocol(abc.ABC):
    """A uniform per-node protocol advanced one synchronous round at a time.

    Subclasses hold their per-node state as numpy arrays and implement
    :meth:`step`, issuing engine rounds.  A protocol may execute more than
    one engine round per ``step`` only if the algorithm genuinely needs
    multiple rounds per iteration (none of the shipped baselines do).
    """

    #: Human-readable name used in result tables.
    name: str = "protocol"

    @abc.abstractmethod
    def step(self, sim: Simulator) -> None:
        """Advance every node by one round."""

    @abc.abstractmethod
    def done(self) -> bool:
        """True when the protocol has reached its goal state."""

    def progress(self) -> float:
        """A scalar in [0, 1] for tracing (e.g. informed fraction)."""
        return 1.0 if self.done() else 0.0


@dataclass
class ProtocolResult:
    """Outcome of :func:`run_protocol`.

    ``completion_round`` is the first step after which ``done()`` held
    (None if never) — the *spreading time*.  ``rounds`` is how many steps
    actually executed; for schedule-driven protocols (``run_to_cap``) this
    is the full w.h.p. schedule, whose message total is the honest
    message-complexity of a protocol with no local stopping rule — the
    distinction at the heart of Karp et al. [10].
    """

    rounds: int
    completed: bool
    completion_round: Optional[int] = None


def run_protocol(
    protocol: VectorProtocol,
    sim: Simulator,
    *,
    max_rounds: int,
    run_to_cap: bool = False,
) -> ProtocolResult:
    """Drive ``protocol`` until :meth:`VectorProtocol.done` or the cap.

    ``max_rounds`` caps protocol steps, protecting experiments against a
    rare non-terminating seed; hitting the cap is reported, not raised —
    the paper's guarantees are w.h.p., so benches must tolerate (and count)
    low-probability failures.  With ``run_to_cap`` the loop ignores
    ``done()`` for control flow and always runs ``max_rounds`` steps (the
    fixed w.h.p. schedule of a protocol that cannot detect termination
    locally), still recording when ``done()`` first held.
    """
    check_max_rounds(max_rounds)
    if sim.telemetry is not None:
        # Sampled by the telemetry commit hook every probe_every rounds.
        sim.telemetry.add_probe(
            "informed", lambda s, p=protocol: round(p.progress(), 6)
        )
    steps = 0
    completion: Optional[int] = None
    if protocol.done():
        completion = 0
    while steps < max_rounds and (run_to_cap or completion is None):
        protocol.step(sim)
        steps += 1
        if completion is None and protocol.done():
            completion = steps
        sim.emit(
            f"{protocol.name}.step",
            progress=round(protocol.progress(), 6),
        )
    return ProtocolResult(
        rounds=steps, completed=protocol.done(), completion_round=completion
    )
