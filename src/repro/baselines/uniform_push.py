"""Uniform PUSH gossip — the classic baseline [12].

Every informed node pushes the rumor to a uniformly random node each
round.  Informs all nodes in ``log2 n + ln n + o(log n)`` rounds w.h.p.
(Pittel); every informed node transmits every round, so the
message-complexity is ``Theta(log n)`` per node — the regime both [10] and
this paper improve on.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.result import AlgorithmReport, report_from_sim
from repro.registry import register_algorithm, register_task_transport
from repro.sim.engine import Simulator
from repro.sim.protocol import VectorProtocol, run_protocol
from repro.tasks.transports import run_uniform_task


class PushProtocol(VectorProtocol):
    """State: the informed mask."""

    name = "push"

    def __init__(self, sim: Simulator, source: int) -> None:
        self.informed = np.zeros(sim.net.n, dtype=bool)
        if sim.net.alive[source]:
            self.informed[source] = True
        self._alive = sim.net.alive

    def step(self, sim: Simulator) -> None:
        senders = np.flatnonzero(self.informed & self._alive)
        dsts = sim.random_targets(senders)
        with sim.round("push") as r:
            delivery = r.push(senders, dsts, sim.net.sizes.rumor_bits)
        self.informed[delivery.dsts] = True

    def done(self) -> bool:
        return bool(self.informed[self._alive].all())

    def progress(self) -> float:
        alive = int(self._alive.sum())
        return float(self.informed[self._alive].sum() / alive) if alive else 1.0


def push_round_cap(n: int) -> int:
    """The w.h.p. schedule: ``log2 n + ln n + O(1)`` rounds (Pittel).

    The additive slack absorbs the lower-order deviations, which at small
    ``n`` are a noticeable fraction of the total.
    """
    return math.ceil(math.log2(max(n, 2)) + math.log(max(n, 2))) + 12


@register_algorithm(
    "push",
    category="baseline",
    kwargs=("max_rounds",),
    doc="Classic uniform PUSH gossip [12]: Θ(log n) rounds and msgs/node.",
)
def uniform_push(
    sim: Simulator, source: int = 0, *, max_rounds: int = None
) -> AlgorithmReport:
    """Run PUSH gossip over its full w.h.p. schedule.

    PUSH has no local stopping rule, so informed nodes transmit for the
    whole ``Theta(log n)`` schedule — that is its ``Theta(log n)``
    message-complexity per node.  The report's ``spread_rounds`` records
    when everyone was actually informed.
    """
    protocol = PushProtocol(sim, source)
    cap = max_rounds if max_rounds is not None else push_round_cap(sim.net.n)
    with sim.metrics.phase("push"):
        result = run_protocol(protocol, sim, max_rounds=cap, run_to_cap=True)
    return report_from_sim(
        "push", sim, protocol.informed, completion_round=result.completion_round
    )


@register_task_transport("push")
def push_task_transport(
    sim: Simulator, state, *, max_rounds: int = None
) -> AlgorithmReport:
    """PUSH's contact pattern generalised to any task: content holders
    push, everyone else stays idle (no pull lane)."""
    return run_uniform_task(sim, state, mode="push", max_rounds=max_rounds)
