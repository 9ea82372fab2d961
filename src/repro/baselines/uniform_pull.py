"""Uniform PULL gossip.

Every *uninformed* node pulls from a uniformly random node each round.
Starting from a single informed node the growth is only ~2x per round
(each informed node is found by ~1 puller in expectation), but once a
constant fraction is informed the uninformed fraction *squares* per round
— the doubly-exponential endgame of Lemma 8 that Cluster1/2 exploit.
Completes in ``Theta(log n)`` rounds from one source.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.result import AlgorithmReport, report_from_sim
from repro.registry import register_algorithm
from repro.sim.engine import Simulator
from repro.sim.protocol import VectorProtocol, run_protocol


class PullProtocol(VectorProtocol):
    """State: the informed mask.  Only uninformed nodes initiate."""

    name = "pull"

    def __init__(self, sim: Simulator, source: int) -> None:
        self.informed = np.zeros(sim.net.n, dtype=bool)
        if sim.net.alive[source]:
            self.informed[source] = True
        self._alive = sim.net.alive

    def step(self, sim: Simulator) -> None:
        pullers = np.flatnonzero(~self.informed & self._alive)
        dsts = sim.random_targets(pullers)
        with sim.round("pull") as r:
            answered = r.pull(
                pullers, dsts, sim.net.sizes.rumor_bits, self.informed[dsts]
            ).answered
        self.informed[pullers[answered]] = True

    def done(self) -> bool:
        return bool(self.informed[self._alive].all())

    def progress(self) -> float:
        alive = int(self._alive.sum())
        return float(self.informed[self._alive].sum() / alive) if alive else 1.0


def pull_round_cap(n: int) -> int:
    """The w.h.p. schedule: doubling start + squaring endgame + slack."""
    return math.ceil(1.5 * math.log2(max(n, 2))) + 8


@register_algorithm(
    "pull",
    category="baseline",
    kwargs=("max_rounds",),
    doc="Uniform PULL gossip: Θ(log n) rounds, cost in contacts not bits.",
)
def uniform_pull(
    sim: Simulator, source: int = 0, *, max_rounds: int = None
) -> AlgorithmReport:
    """Run PULL gossip over its full w.h.p. schedule.

    Only uninformed nodes initiate, so the schedule tail is free of
    traffic once everyone is informed; PULL's cost is in *contacts*
    (requests), ``Theta(log n)`` per node, visible in
    ``metrics.total.pull_requests``.
    """
    protocol = PullProtocol(sim, source)
    cap = max_rounds if max_rounds is not None else pull_round_cap(sim.net.n)
    with sim.metrics.phase("pull"):
        result = run_protocol(protocol, sim, max_rounds=cap, run_to_cap=True)
    return report_from_sim(
        "pull", sim, protocol.informed, completion_round=result.completion_round
    )
