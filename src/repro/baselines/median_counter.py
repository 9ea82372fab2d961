"""The median-counter algorithm of Karp et al. [10] (FOCS 2000).

``Theta(log n)`` rounds with only ``O(log log n)`` rumor transmissions per
node — the message-complexity benchmark Cluster2 beats (Theorem 2 sends
O(1) per node by exploiting direct addressing, which [10] does not have).

Each round every node calls one uniformly random partner; the call is a
bidirectional push-pull exchange of (rumor, state, counter).  States per
node:

* **uninformed** — pulls only; adopting the rumor enters B with counter 1;
* **B (counter m)** — pushes and pulls.  *Median rule*: if more than half
  of the informed partners it exchanged with this round have counter
  greater than m or are in state C, the counter increments.  Reaching
  ``ctr_max = ceil(log2 log2 n) + 4`` switches to C;
* **C** — keeps transmitting for another ``O(log log n)`` rounds, then
  goes quiet (D).

The doubly-logarithmic counter cap is what bounds per-node transmissions:
a node's counter lags the population median by O(1) w.h.p., and all
counters advance in lock-step once the rumor saturates.  The report's
``spread_rounds`` is when every alive node was informed; its ``rounds``
is when the network went quiet.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.result import AlgorithmReport, report_from_sim
from repro.registry import register_algorithm
from repro.sim.batch import check_max_rounds
from repro.sim.caps import round_cap
from repro.sim.delivery import receive_counts
from repro.sim.engine import Simulator

# Node states.
UNINFORMED, STATE_B, STATE_C, STATE_D = 0, 1, 2, 3


class MedianCounterProtocol:
    """Vectorised median-counter state machine; :meth:`step` runs one
    round over the whole network."""

    def __init__(self, sim: Simulator, source: int) -> None:
        n = sim.net.n
        ll = math.log2(max(math.log2(max(n, 4)), 2.0))
        self.ctr_max = math.ceil(ll) + 1
        self.c_rounds = math.ceil(ll) + 1
        self.state = np.zeros(n, dtype=np.int8)
        self.counter = np.zeros(n, dtype=np.int64)
        self.c_countdown = np.zeros(n, dtype=np.int64)
        if sim.net.alive[source]:
            self.state[source] = STATE_B
            self.counter[source] = 1
        self._alive = sim.net.alive

    # ------------------------------------------------------------------

    def step(self, sim: Simulator) -> None:
        n = sim.net.n
        rumor_bits = sim.net.sizes.rumor_bits + sim.net.sizes.counter()
        alive = self._alive
        transmitting = ((self.state == STATE_B) | (self.state == STATE_C)) & alive
        quiet = ~transmitting & alive

        callers = np.flatnonzero(alive & (self.state != STATE_D))
        partners = sim.random_targets(callers)

        push_mask = transmitting[callers]
        with sim.round("median-counter") as r:
            # Forward half: transmitting callers push the rumor.
            delivery = r.push(
                callers[push_mask], partners[push_mask], rumor_bits
            )
            # Return half: any caller whose partner transmits receives the
            # rumor back on the same channel (free-riding pull).
            answered = r.pull(
                callers,
                partners,
                rumor_bits,
                transmitting[partners],
                counts_initiation=False,
            ).answered

            # --- Collect, per node, the counters it was exposed to ---------
            # Exposures: pushes received, plus the pull responses received.
            exp_dst = np.concatenate([delivery.dsts, callers[answered]])
            exp_src = np.concatenate([delivery.srcs, partners[answered]])

            # New infections.
            newly = np.zeros(n, dtype=bool)
            newly[exp_dst] = True
            newly &= self.state == UNINFORMED
            # Median rule for state-B nodes: count exposures with counter not
            # smaller than own (or from state C), vs. total exposures.  The >=
            # is essential: at saturation all counters are equal and must
            # advance in lock-step so the rumor ages out in O(log log n) rounds.
            in_b = self.state == STATE_B
            greater = (
                (self.counter[exp_src] >= self.counter[exp_dst])
                | (self.state[exp_src] == STATE_C)
            ).astype(np.int64)
            total_exposures = receive_counts(n, exp_dst)
            greater_exposures = np.bincount(exp_dst, weights=greater, minlength=n)
            advance = in_b & (2 * greater_exposures > total_exposures)

            self.state[newly] = STATE_B
            self.counter[newly] = 1
            self.counter[advance] += 1
            to_c = in_b & (self.counter > self.ctr_max)
            self.state[to_c] = STATE_C
            self.c_countdown[to_c] = self.c_rounds
            in_c = self.state == STATE_C
            self.c_countdown[in_c] -= 1
            self.state[in_c & (self.c_countdown <= 0)] = STATE_D

    def spread(self) -> bool:
        """True when every alive node is informed."""
        return bool((self.state != UNINFORMED)[self._alive].all())

    def done(self) -> bool:
        if not self.spread():
            return False
        # Quiescence: nobody transmitting any more.
        active = (self.state == STATE_B) | (self.state == STATE_C)
        return not active[self._alive].any()

    def informed_mask(self) -> np.ndarray:
        """Nodes that hold the rumor, dead or alive (reports count the
        alive ones)."""
        return self.state != UNINFORMED

    def progress(self, alive: np.ndarray) -> float:
        """Informed fraction of the nodes ``alive`` marks."""
        count = int(alive.sum())
        return float((self.informed_mask() & alive).sum() / count) if count else 1.0


@register_algorithm(
    "median-counter",
    category="baseline",
    kwargs=("max_rounds",),
    doc="Karp et al. [10]: Θ(log n) rounds, O(log log n) msgs/node.",
    # The median-counter stopping rule compares counter medians against
    # phase thresholds derived from uniform *global* sampling; on a
    # restricted contact graph those thresholds are wrong (nodes would
    # stop early or never), not merely slow, so the pair is refused.
    complete_graph_only=True,
)
def median_counter(
    sim: Simulator, source: int = 0, *, max_rounds: int = None
) -> AlgorithmReport:
    """Run the median-counter algorithm to quiescence; the report's
    ``spread_rounds`` is when every alive node was first informed.  Its
    call is a bidirectional exchange, not a push/pull role split, so it
    keeps its own round loop."""
    check_max_rounds(max_rounds)
    protocol = MedianCounterProtocol(sim, source)
    cap = max_rounds if max_rounds is not None else round_cap("median-counter", sim.net.n)
    if sim.telemetry is not None:
        sim.telemetry.add_probe(
            "informed", lambda s: round(protocol.progress(s.committed_alive), 6)
        )
    completion = 0 if protocol.spread() else None
    with sim.metrics.phase("median-counter"):
        for step in range(1, cap + 1):
            if protocol.done():
                break
            protocol.step(sim)
            if completion is None and protocol.spread():
                completion = step
            if sim.records_events:
                sim.emit(
                    "median-counter.step",
                    progress=round(protocol.progress(sim.net.alive), 6),
                )
    return report_from_sim(
        "median-counter",
        sim,
        protocol.informed_mask(),
        completion_round=completion,
        ctr_max=protocol.ctr_max,
    )
