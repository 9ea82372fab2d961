"""Uniform result type for all broadcast algorithms (paper's and baselines).

Every algorithm in the library — Cluster1/2/3+PUSH-PULL and every baseline —
returns an :class:`AlgorithmReport` so the experiment runner, benches, and
examples can treat them interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from repro.sim.metrics import Metrics


@dataclass
class AlgorithmReport:
    """Outcome and cost of one broadcast execution.

    The complexity figures are the paper's three measures plus the fan-in
    bound of Section 7; ``informed`` is the per-node outcome mask, and
    ``success`` means *every alive node was informed* (the paper's w.h.p.
    guarantee — for the fault-tolerance experiments use
    ``uninformed_survivors`` against the ``o(F)`` bound instead).
    """

    algorithm: str
    n: int
    rounds: int
    messages: int
    bits: int
    max_fanin: int
    informed: np.ndarray
    alive: np.ndarray
    metrics: Metrics
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def messages_per_node(self) -> float:
        """The paper's message-complexity (average per node)."""
        return self.messages / self.n

    @property
    def spread_rounds(self) -> int:
        """Rounds until every alive node was informed.

        For schedule-driven baselines this is the recorded completion
        round (their ``rounds`` is the full w.h.p. schedule); for the
        phase-structured algorithms the two coincide.
        """
        completion = self.extras.get("completion_round")
        return int(completion) if completion is not None else self.rounds

    @property
    def contacts(self) -> int:
        """Total contacts: pushes plus pull requests (the connection
        count, as opposed to content-carrying messages)."""
        return self.metrics.total.pushes + self.metrics.total.pull_requests

    @property
    def contacts_per_node(self) -> float:
        return self.contacts / self.n

    @property
    def bits_per_node(self) -> float:
        return self.bits / self.n

    @property
    def informed_fraction(self) -> float:
        """Fraction of *alive* nodes informed."""
        alive = int(self.alive.sum())
        if alive == 0:
            return 0.0
        return float((self.informed & self.alive).sum() / alive)

    @property
    def uninformed_survivors(self) -> int:
        """Alive nodes left uninformed (Theorem 19's o(F) quantity)."""
        return int((~self.informed & self.alive).sum())

    @property
    def success(self) -> bool:
        """True when every alive node was informed."""
        return self.uninformed_survivors == 0

    def row(self) -> Dict[str, Any]:
        """Flat dict for result tables."""
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "rounds": self.rounds,
            "spread": self.spread_rounds,
            "msgs/node": round(self.messages_per_node, 3),
            "bits": self.bits,
            "maxΔ": self.max_fanin,
            "informed": round(self.informed_fraction, 6),
        }

    def __str__(self) -> str:
        return (
            f"{self.algorithm}(n={self.n}): rounds={self.rounds} "
            f"msgs/node={self.messages_per_node:.2f} bits={self.bits} "
            f"maxΔ={self.max_fanin} informed={self.informed_fraction:.4f}"
        )


def report_from_sim(
    algorithm: str,
    sim,
    informed: np.ndarray,
    **extras: Any,
) -> AlgorithmReport:
    """Assemble a report from a finished simulator."""
    return AlgorithmReport(
        algorithm=algorithm,
        n=sim.net.n,
        rounds=sim.metrics.rounds,
        messages=sim.metrics.messages,
        bits=sim.metrics.bits,
        max_fanin=sim.metrics.max_fanin,
        informed=np.asarray(informed, dtype=bool),
        alive=sim.committed_alive.copy(),
        metrics=sim.metrics,
        extras=dict(extras),
    )
