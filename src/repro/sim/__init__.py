"""Synchronous random-phone-call simulator substrate.

This subpackage implements the communication model of Haeupler & Malkhi
(PODC 2014), Section 2:

* a complete network of ``n`` nodes, each with a unique ID drawn from a
  polynomially large ID space (:mod:`repro.sim.ids`,
  :mod:`repro.sim.network`);
* synchronous rounds in which every node may *initiate* at most one
  contact — a ``PUSH`` or a ``PULL`` — with either a uniformly random node
  or a directly addressed node (:mod:`repro.sim.engine`);
* exact accounting of the three complexity measures the paper optimizes:
  round-, message-, and bit-complexity, plus the per-round fan-in ``Delta``
  studied in Section 7 (:mod:`repro.sim.metrics`);
* oblivious node failures for the fault-tolerance experiments of Section 8
  (:mod:`repro.sim.failures`);
* dynamic adversity beyond the paper's static model — per-round churn,
  message loss, blackout windows and revivals, driven through the round
  engine by declarative, picklable schedules (:mod:`repro.sim.dynamics`);
* first-class contact topologies beyond the paper's complete graph —
  ring, torus, random-regular and G(n, p) contact graphs with
  liveness-aware CSR sampling, plus the ``direct_addressing`` mode knob
  (:mod:`repro.sim.topology`).

All hot paths are vectorised over numpy arrays of node indices.  The
sequential engine's in-place ``Network.reset`` plus the batched
``(R, n)`` replication substrate (:mod:`repro.sim.batch`) carry the
simulator to ``n = 2**20`` and hundreds of replications per
configuration — see ``benchmarks/bench_scale.py``.
"""

from repro.sim.delivery import (
    receive_any,
    receive_counts,
    receive_min_by_key,
    receive_or,
)
from repro.sim.dynamics import (
    AdversitySchedule,
    Blackout,
    CrashAt,
    CrashTrickle,
    MessageLoss,
    ReviveAt,
    parse_schedule,
    resolve_schedule,
)
from repro.sim.batch import BatchOutcome, random_targets_batch
from repro.sim.buffers import BufferPool
from repro.sim.engine import ModelViolation, Round, Simulator
from repro.sim.ids import IdSpace
from repro.sim.messages import MessageSizes
from repro.sim.metrics import Metrics, PhaseStats
from repro.sim.network import Network
from repro.sim.rng import make_rng, spawn_rngs
from repro.sim.topology import (
    CompleteGraph,
    ContactGraph,
    ErdosRenyiGnp,
    RandomRegular,
    Ring,
    Topology,
    Torus2D,
    resolve_topology,
)

__all__ = [
    "AdversitySchedule",
    "BatchOutcome",
    "Blackout",
    "BufferPool",
    "CompleteGraph",
    "ContactGraph",
    "CrashAt",
    "CrashTrickle",
    "ErdosRenyiGnp",
    "IdSpace",
    "MessageLoss",
    "MessageSizes",
    "Metrics",
    "ModelViolation",
    "Network",
    "PhaseStats",
    "RandomRegular",
    "ReviveAt",
    "Ring",
    "Round",
    "Simulator",
    "Topology",
    "Torus2D",
    "make_rng",
    "parse_schedule",
    "random_targets_batch",
    "receive_any",
    "receive_counts",
    "receive_min_by_key",
    "receive_or",
    "resolve_schedule",
    "resolve_topology",
    "spawn_rngs",
]
