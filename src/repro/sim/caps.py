"""Default round caps: the one rule for a schedule run without ``max_rounds``.

A base cap is a complete-graph w.h.p. schedule, sized from ``n`` (and a
task knob) alone.  A dissemination cap also grows by
:data:`ROUNDS_PER_HOP` for every hop by which the bound graph's diameter
hint exceeds the complete graph's ``ceil(log2 n)``; so it is the base cap
on the complete graph, on expanders, and on a graph with no hint.
"""

from __future__ import annotations

import math


def _pittel(n: int) -> int:
    # PUSH: log2 n + ln n + O(1) (Pittel); the slack covers small n.
    return math.ceil(math.log2(n) + math.log(n)) + 12


#: schedule -> base cap, from ``n >= 2`` and the schedule's task knobs.
BASE_CAPS = {
    "push": _pittel,
    "uniform": _pittel,  # every uniform-gossip task: PUSH's shape
    "pull": lambda n: math.ceil(1.5 * math.log2(n)) + 8,  # doubling, then squaring
    "push-pull": lambda n: math.ceil(math.log(n, 3)) + 10,  # log3 n + O(log log n)
    # k independent epidemics: a union bound over k adds log k.
    "k-rumor": lambda n, k: _pittel(n) + math.ceil(math.log2(k + 1)),
    "median-counter": lambda n: math.ceil(3 * math.log2(n)) + 20,
    "name-dropper": lambda n: 2 * math.ceil(math.log2(n)) ** 2 + 10,  # O(log² n)
    # O(log n + log 1/tol) (Kempe et al.); runs stop at convergence.
    "push-sum": lambda n, tol: 4 * (
        math.ceil(math.log2(n)) + math.ceil(math.log2(1.0 / tol))
    ) + 24,
    # The cluster task transport's mix and catch-up phases.
    "cluster-task": lambda n: math.ceil(math.log2(n)) + 8,
}

#: Rounds per hop of hint beyond ``ceil(log2 n)``: at n = 2^10 uniform
#: dissemination spread within 2.1, 2.6 and 1.9 hints on ``Ring(k=1)``,
#: ``Ring(k=4)`` and ``Torus2D``.
ROUNDS_PER_HOP = 3


def round_cap(schedule: str, n: int, graph=None, **task_knobs) -> int:
    """The default cap of ``schedule`` for an ``n``-node run on ``graph``
    (the bound :class:`~repro.sim.topology.ContactGraph`, ``None`` on
    the complete graph); ``task_knobs`` are k-rumor's ``k`` and
    push-sum's ``tol``."""
    n = max(n, 2)
    cap = BASE_CAPS[schedule](n, **task_knobs)
    hint = None if graph is None else graph.diameter_hint
    # Averaging mixes in about hint² rounds, not hint: push-sum keeps
    # its n- and tol-only cap.
    if hint is not None and schedule != "push-sum":
        cap += ROUNDS_PER_HOP * max(0, hint - math.ceil(math.log2(n)))
    return cap
