"""repro — a reproduction of "Optimal Gossip with Direct Addressing".

Haeupler & Malkhi, PODC 2014 (arXiv:1402.2701).

Quickstart::

    from repro import broadcast
    result = broadcast(n=4096, algorithm="cluster2", seed=7)
    print(result)                    # rounds / msgs-per-node / bits / maxΔ
    print(result.metrics.phase_report())

Layout:

* :mod:`repro.sim` — the random-phone-call simulator substrate;
* :mod:`repro.core` — clusterings, the eight coordination primitives, and
  the paper's algorithms (Cluster1/2/3, ClusterPUSH-PULL, the Section 6
  lower bound);
* :mod:`repro.baselines` — PUSH/PULL/PUSH-PULL, Karp et al.'s
  median-counter, an Avin–Elsässer reconstruction, and Name-Dropper;
* :mod:`repro.tasks` — the task layer: k-rumor all-cast, push-sum
  averaging, min/max dissemination over the same engine and transports;
* :mod:`repro.analysis` — experiment sweeps, statistics, growth-shape
  fitting, and table rendering;
* :mod:`repro.workloads` — named scenario presets.
"""

from repro.core.broadcast import (
    BroadcastResult,
    ReplicationEngine,
    broadcast,
    run_replications,
)
from repro.core.clustering import UNCLUSTERED, Clustering
from repro.core.constants import LAPTOP, PAPER, Profile, get_profile
from repro.core.result import AlgorithmReport
from repro.registry import (
    AlgorithmSpec,
    TaskSpec,
    algorithm_names,
    algorithm_specs,
    compatible_algorithms,
    get_algorithm,
    get_task,
    register_algorithm,
    register_task,
    supports_task,
    task_names,
    task_specs,
)
from repro.sim.buffers import BufferPool
from repro.sim.engine import ModelViolation, Simulator
from repro.sim.metrics import Metrics
from repro.sim.network import Network

__version__ = "1.3.0"

__all__ = [
    "AlgorithmReport",
    "AlgorithmSpec",
    "BroadcastResult",
    "BufferPool",
    "Clustering",
    "LAPTOP",
    "Metrics",
    "ModelViolation",
    "Network",
    "PAPER",
    "Profile",
    "ReplicationEngine",
    "Simulator",
    "TaskSpec",
    "UNCLUSTERED",
    "algorithm_names",
    "algorithm_specs",
    "broadcast",
    "compatible_algorithms",
    "get_algorithm",
    "get_profile",
    "get_task",
    "register_algorithm",
    "register_task",
    "run_replications",
    "supports_task",
    "task_names",
    "task_specs",
    "__version__",
]
