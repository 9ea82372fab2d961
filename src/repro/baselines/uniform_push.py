"""Uniform PUSH gossip — the classic baseline [12].

Every informed node pushes the rumor to a uniformly random node each
round (:func:`repro.tasks.transports.run_uniform_task` in ``"push"``
mode over a :class:`~repro.tasks.state.BroadcastState`).  Informs all
nodes in ``log2 n + ln n + o(log n)`` rounds w.h.p. (Pittel); every
informed node transmits every round, so the message-complexity is
``Theta(log n)`` per node — the regime both [10] and this paper improve
on.
"""

from __future__ import annotations

from repro.core.result import AlgorithmReport
from repro.registry import register_algorithm, register_task_transport
from repro.sim.engine import Simulator
from repro.tasks.transports import run_uniform_broadcast, run_uniform_transport


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
    return run_uniform_broadcast(sim, source, mode="push", max_rounds=max_rounds)


@register_task_transport("push")
def push_task_transport(
    sim: Simulator, state, *, max_rounds: int = None
) -> AlgorithmReport:
    """PUSH's contact pattern generalised to any task: content holders
    push, everyone else stays idle (no pull lane)."""
    return run_uniform_transport(sim, state, mode="push", max_rounds=max_rounds)
