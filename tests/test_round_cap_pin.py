"""Pin of the default round caps where the contact graph is shallow.

PUSH, PULL and PUSH-PULL have no local stopping rule, so a run's
``rounds`` is its default cap.  On the complete graph and on a random
8-regular expander, whose diameter is at most the complete graph's
``ceil(log2 n)``, the caps are the n-only w.h.p. schedules: PUSH's
``log2 n + ln n + 12`` (Pittel), PULL's ``1.5 log2 n + 8`` and
PUSH-PULL's ``log3 n + 10`` (Karp et al.).  Any change to the cap rule
that moves one of these figures changes every complete-graph output.
"""

from __future__ import annotations

import pytest

from repro.core.broadcast import broadcast
from repro.sim.topology import CompleteGraph, RandomRegular

#: algorithm -> n -> default cap.
CAPS = {
    "push": {16: 19, 256: 26, 1000: 29, 4096: 33, 2**16: 40},
    "pull": {16: 14, 256: 20, 1000: 23, 4096: 26, 2**16: 32},
    "push-pull": {16: 13, 256: 16, 1000: 17, 4096: 18, 2**16: 21},
}
TOPOLOGIES = {"complete": CompleteGraph(), "regular8": RandomRegular(d=8)}


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize(
    "algorithm, n", [(algorithm, n) for algorithm, caps in CAPS.items() for n in caps]
)
def test_uniform_broadcast_runs_to_its_pinned_cap(algorithm, n, topology):
    report = broadcast(
        n, algorithm, seed=0, topology=TOPOLOGIES[topology]
    )
    assert report.rounds == CAPS[algorithm][n]
