"""Name-Dropper [9] — resource discovery by gossiping neighbor lists.

Harchol-Balter, Leighton & Lewin (PODC 1999): starting from any weakly
connected "knows-about" topology, each round every node pushes its entire
known-ID list to one uniformly random *known* node; ``O(log^2 n)`` rounds
suffice for everyone to know everyone.  The classic direct-addressing
predecessor cited in Section 1 — included as a reference point and for the
knowledge-graph machinery it shares with the Section 6 lower bound.

Knowledge sets are Theta(n) per node at the end, so this module is meant
for small ``n`` (examples and tests use ``n <= 512``); the simulator
engine still accounts every pushed ID.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.registry import register_algorithm
from repro.sim.caps import round_cap
from repro.sim.engine import Simulator


@dataclass
class DiscoveryReport:
    """Outcome of a resource-discovery run."""

    algorithm: str
    n: int
    rounds: int
    messages: int
    bits: int
    complete: bool
    min_knowledge: int

    def __str__(self) -> str:
        return (
            f"{self.algorithm}(n={self.n}): rounds={self.rounds} "
            f"complete={self.complete} min_knowledge={self.min_knowledge}"
        )


def ring_topology(n: int) -> List[List[int]]:
    """A weakly connected seed topology: node i knows i+1 (mod n)."""
    return [[(i + 1) % n] for i in range(n)]


def random_tree_topology(n: int, rng: np.random.Generator) -> List[List[int]]:
    """Each node i > 0 knows one uniformly random earlier node."""
    return [[] if i == 0 else [int(rng.integers(0, i))] for i in range(n)]


@register_algorithm(
    "name-dropper",
    category="discovery",
    broadcastable=False,
    kwargs=("initial_knows", "max_rounds"),
    doc="Harchol-Balter et al. [9]: O(log² n)-round resource discovery.",
    # Resource discovery *is* learning the complete graph; a restricted
    # contact graph changes the problem statement, not the constants.
    complete_graph_only=True,
)
def name_dropper(
    sim: Simulator,
    initial_knows: Optional[Sequence[Sequence[int]]] = None,
    *,
    max_rounds: int = None,
) -> DiscoveryReport:
    """Run Name-Dropper until everyone knows everyone (or the cap).

    ``initial_knows[i]`` is the list of nodes ``i`` initially knows
    (besides itself); defaults to a ring.  Pointer-doubling intuition: the
    known set roughly doubles its reach every ``O(log n)`` rounds, giving
    the ``O(log^2 n)`` bound of [9].
    """
    n = sim.net.n
    if n > 4096:
        raise ValueError(
            f"name_dropper keeps Theta(n) knowledge per node; n={n} is too large"
        )
    knows: List[set] = [
        set(neigh) | {i}
        for i, neigh in enumerate(initial_knows or ring_topology(n))
    ]
    cap = max_rounds if max_rounds is not None else round_cap("name-dropper", n)
    id_bits = sim.net.sizes.id_bits

    rounds = 0
    with sim.metrics.phase("name-dropper"):
        while rounds < cap and any(len(k) < n for k in knows):
            rounds += 1
            srcs, dsts, sizes = [], [], []
            for v in sim.net.alive_indices():
                others = knows[v] - {int(v)}
                if not others:
                    continue
                target = list(others)[int(sim.rng.integers(0, len(others)))]
                srcs.append(int(v))
                dsts.append(target)
                sizes.append(len(knows[v]) * id_bits)
            with sim.round("name-dropper") as r:
                delivery = r.push(
                    np.array(srcs, dtype=np.int64),
                    np.array(dsts, dtype=np.int64),
                    np.array(sizes, dtype=np.int64),
                )
            for s, d in zip(delivery.srcs, delivery.dsts):
                knows[int(d)] |= knows[int(s)]
            if sim.records_events:
                sim.emit("name-dropper.round", min_knowledge=min(len(k) for k in knows))

    alive = sim.net.alive_indices()
    min_knowledge = min(len(knows[int(v)]) for v in alive)
    return DiscoveryReport(
        algorithm="name-dropper",
        n=n,
        rounds=rounds,
        messages=sim.metrics.messages,
        bits=sim.metrics.bits,
        complete=all(len(knows[int(v)]) >= len(alive) for v in alive),
        min_knowledge=min_knowledge,
    )
