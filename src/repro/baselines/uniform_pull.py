"""Uniform PULL gossip.

Every *uninformed* node pulls from a uniformly random node each round
(:func:`repro.tasks.transports.run_uniform_task` in ``"pull"`` mode over
a :class:`~repro.tasks.state.BroadcastState`).
Starting from a single informed node the growth is only ~2x per round
(each informed node is found by ~1 puller in expectation), but once a
constant fraction is informed the uninformed fraction *squares* per round
— the doubly-exponential endgame of Lemma 8 that Cluster1/2 exploit.
Completes in ``Theta(log n)`` rounds from one source.
"""

from __future__ import annotations

from repro.core.result import AlgorithmReport
from repro.registry import register_algorithm
from repro.sim.engine import Simulator
from repro.tasks.transports import run_uniform_broadcast


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
    return run_uniform_broadcast(sim, source, mode="pull", max_rounds=max_rounds)
