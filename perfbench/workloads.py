"""The benchmark's workloads, their seeds, and their output checks.

Each workload is a closed loop: one caller in one process issues
back-to-back ``run_replications(...)`` calls of a fixed size with no
worker pool (``workers=None``).  Each was chosen because one layer does
most of its work; ``dominant`` names those layers and ``bypassed`` the
layers the workload never enters, whose traced self time should stay
near zero (BENCHMARK.json records the same reasoning).

This module imports nothing from the simulator at import time, so the
parent process stays light and fails fast when the sources are absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Delay model of both straggler workloads (the E19/E21 gate config):
#: 2% of nodes are 10x slower than the unit base delay.
STRAGGLER = dict(base=1.0, fraction=0.02, factor=10.0)

@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    n: int
    engine: str
    #: Replications per ``run_replications`` call (a whole number of
    #: vector chunks, so every call does the same work).  Calls stay
    #: short (0.1-0.5 s) so a run holds many of them, each paired
    #: with the reference-kernel run that follows it.
    reps_per_call: int
    #: Calls per process whose replications feed the cost measures
    #: (``msgs_per_node``, ``spread_rounds``): a fixed prefix, so the
    #: measures repeat exactly for a seed however fast the host runs.
    cost_calls: int
    straggler: bool = False
    expander_degree: Optional[int] = None
    dominant: Tuple[str, ...] = ()
    bypassed: Tuple[str, ...] = ()

    def run_kwargs(self) -> dict:
        """Keyword arguments of ``run_replications`` (imports lazily)."""
        from repro.sim.schedule import EventSchedulerSpec
        from repro.sim.topology import NodeSlowdownDelay, RandomRegular

        kwargs = dict(
            n=self.n,
            algorithm=self.algorithm,
            reps=self.reps_per_call,
            engine=self.engine,
            workers=None,
        )
        if self.straggler:
            kwargs["scheduler"] = EventSchedulerSpec(delay=NodeSlowdownDelay(**STRAGGLER))
        if self.expander_degree is not None:
            kwargs["topology"] = RandomRegular(d=self.expander_degree)
        return kwargs

    @property
    def array_elems(self) -> int:
        """Elements in the workload's largest arrays: one replication's
        ``n`` nodes, or the bound graph's ``n * d`` edge list."""
        return self.n * (self.expander_degree or 1)

    @property
    def spread_envelope(self) -> Optional[float]:
        """The E1 envelope on Cluster2 spread rounds, ``40 log2 log2 n + 25``."""
        if self.algorithm != "cluster2":
            return None
        return 40 * math.log2(math.log2(self.n)) + 25


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cluster2-vector",
            algorithm="cluster2",
            n=2**18,
            engine="vector",
            reps_per_call=1,
            cost_calls=14,
            dominant=("batch_cluster", "phase"),
            bypassed=("schedule", "topology", "engine", "network"),
        ),
        Workload(
            name="pushpull-straggler-vector",
            algorithm="push-pull",
            n=2**14,
            engine="vector",
            reps_per_call=16,
            cost_calls=4,
            straggler=True,
            dominant=("schedule", "topology", "batch"),
            bypassed=("batch_cluster", "phase", "engine", "network"),
        ),
        Workload(
            name="pushpull-expander-vector",
            algorithm="push-pull",
            n=2**16,
            engine="vector",
            reps_per_call=1,
            cost_calls=8,
            expander_degree=8,
            dominant=("topology",),
            bypassed=("batch_cluster", "phase", "schedule", "engine", "network"),
        ),
        Workload(
            name="cluster2-straggler-reset",
            algorithm="cluster2",
            n=2**12,
            engine="reset",
            reps_per_call=8,
            cost_calls=4,
            straggler=True,
            dominant=("engine", "schedule", "topology", "phase"),
            bypassed=("batch_cluster", "batch"),
        ),
    )
}


def call_seed(seed: int, process: int, call: int, reps: int) -> int:
    """Base seed of one timed call: disjoint replication blocks per
    (run seed, process, call), so no two calls replay the same reps."""
    return seed * 10**7 + process * 10**6 + call * reps


def warmup_seed(seed: int) -> int:
    """Base seed of the warm-up call, which the repeat check replays."""
    return seed * 10**7 + 9 * 10**6


def holdout_seed(seed: int) -> int:
    """A second seed family, never used for timing or tuning: the
    held-out correctness check runs on it."""
    return 7919 * seed + 10**9 + 17


def check_summary(wl: Workload, summary) -> List[str]:
    """Problems with one call's summary (empty when it is correct).

    Failed replications are counted separately (``failed``); this
    checks the paper's envelopes: Cluster2 spread rounds under the E1
    envelope, and the straggler clock dilated at least 2x over rounds
    (the E19 dilation floor).
    """
    problems = []
    envelope = wl.spread_envelope
    if envelope is not None and summary.spread_rounds.maximum > envelope:
        problems.append(
            f"spread_rounds max {summary.spread_rounds.maximum} over the "
            f"E1 envelope {envelope:.1f}"
        )
    if wl.straggler:
        sim_time = summary.metrics.get("sim_time")
        if sim_time is None or sim_time.count != summary.reps:
            problems.append("straggler run reported no per-rep sim_time")
        elif sim_time.mean < 2 * summary.rounds.mean:
            problems.append(
                f"sim_time mean {sim_time.mean:.2f} under 2x rounds "
                f"mean {summary.rounds.mean:.2f}"
            )
    return problems


def check_reps(wl: Workload, rows: List[dict]) -> List[str]:
    """Per-replication problems, from ``consume`` rows of a checked call."""
    problems = []
    for row in rows:
        if not row["success"]:
            problems.append(f"rep {row['rep']} did not inform every node")
        if wl.straggler and row["sim_time"] < 2 * row["rounds"]:
            problems.append(
                f"rep {row['rep']}: sim_time {row['sim_time']:.2f} under "
                f"2x rounds {row['rounds']}"
            )
    return problems
