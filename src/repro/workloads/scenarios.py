"""Workload presets for the scenarios the paper's introduction motivates.

Gossip's classic deployments: disseminating membership changes,
fanning out configuration updates, and staying live through correlated
failures — each maps to a named parameterisation of
:func:`repro.core.broadcast.broadcast` so examples and tests exercise the
API the way a downstream user would.

Scenarios are **registry-validated**: constructing one checks its
algorithm (and every extra knob) against
:mod:`repro.registry`, so a typo fails at definition time, not after a
long sweep.  They also compile to the executor's
:class:`~repro.analysis.runner.RunSpec` jobs, so
:func:`run_suite` can fan a whole scenario × seed grid out over worker
processes with deterministic, bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.runner import (
    RunRecord,
    RunSpec,
    execute,
    replicate_spec,
    settings_of,
)
from repro.analysis.stats import ReplicationSummary
from repro.core.broadcast import broadcast, check_settings
from repro.core.result import AlgorithmReport
from repro.sim.dynamics import AdversitySchedule
from repro.sim.schedule import EventSchedulerSpec
from repro.sim.topology import (
    EdgeWeightedDelay,
    NodeSlowdownDelay,
    RandomRegular,
    RateLimitedEdgeDelay,
    Ring,
    Topology,
)


def _diameter_round_budget(topology: Topology, n: int) -> int:
    """Round budget for a diameter-bound preset: three traversals of the
    topology's :meth:`~repro.sim.topology.Topology.diameter_hint` plus
    w.h.p. slack, derived from the topology instead of hard-coded (a
    ``Ring(k=4)`` at ``n=2**9`` yields the historical budget of 200)."""
    hint = topology.diameter_hint(n)
    if hint is None:
        raise ValueError(
            f"topology {topology.name!r} has no diameter hint to derive a "
            "round budget from"
        )
    return 3 * hint + 8


@dataclass(frozen=True)
class Scenario:
    """A named broadcast workload.

    Validated on construction by the same run-config check every engine
    calls (:func:`repro.core.broadcast.check_config`), with the error
    prefixed by the scenario's name: the algorithm must be a registered
    broadcastable name, every extra keyword one of its declared knobs,
    and so on.  ``schedule`` (a dynamic adversity timeline — an
    :class:`~repro.sim.dynamics.AdversitySchedule`, a preset name, or a
    spec string) is resolved at definition time, so a typo'd schedule
    also fails immediately.  ``kwargs`` takes any other keyword
    :func:`~repro.core.broadcast.broadcast` does: algorithm knobs, and
    the run settings that have no field here (``source``, ``profile``,
    ``trace``).
    """

    name: str
    description: str
    n: int
    algorithm: str
    message_bits: int
    failures: float = 0
    failure_pattern: str = "random"
    schedule: "AdversitySchedule | str | None" = None
    #: Workload semantics (a registered task name); the default is the
    #: implicit single-rumor broadcast.
    task: str = "broadcast"
    task_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Contact topology (a frozen Topology spec or a registered name);
    #: None is the paper's complete graph.
    topology: "Topology | str | None" = None
    direct_addressing: str = "global"
    #: Execution tier ("event", an
    #: :class:`~repro.sim.schedule.EventSchedulerSpec`, or None for the
    #: synchronous round engine); normalised to a frozen spec on
    #: construction so a typo fails at definition time.
    scheduler: "EventSchedulerSpec | str | None" = None
    #: Default replication count for :func:`replicate_suite`.
    reps: int = 1
    #: Heavy (large-n) presets are skipped by whole-catalogue sweeps and
    #: must be requested by name — they exist for the scale tier, not for
    #: smoke tests.
    heavy: bool = False
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            checked = check_settings(
                self.n, self.algorithm, settings_of(self), reps=self.reps
            )
        except ValueError as exc:
            raise type(exc)(f"scenario {self.name!r}: {exc}") from None
        # Normalise preset names / spec strings to frozen specs.
        object.__setattr__(self, "schedule", checked.schedule)
        object.__setattr__(self, "topology", checked.topology)
        object.__setattr__(self, "scheduler", checked.scheduler)

    def run_spec(self, seed: int = 0, reps: int = 1, engine: str = "auto") -> RunSpec:
        """Compile to one executor job (``reps > 1``: a replication job)."""
        return RunSpec.of(
            self.algorithm, self.n, seed, reps=reps, engine=engine, **settings_of(self)
        )

    def run(self, seed: int = 0, **overrides: Any) -> AlgorithmReport:
        """Execute the scenario (``overrides`` patch any broadcast arg)."""
        args = {"n": self.n, "algorithm": self.algorithm, "seed": seed}
        return broadcast(**{**args, **settings_of(self), **overrides})


SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the catalogue (extension point for users)."""
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


for _scenario in [
    Scenario(
        name="membership-update",
        description=(
            "A 16k-node cluster disseminates a membership delta "
            "(small payload) with optimal message cost — Cluster2."
        ),
        n=2**14,
        algorithm="cluster2",
        message_bits=512,
    ),
    Scenario(
        name="config-fanout",
        description=(
            "An 8 KiB configuration blob fans out over 4k nodes; "
            "payload dominates, so the O(nb)-bit guarantee matters."
        ),
        n=2**12,
        algorithm="cluster2",
        message_bits=8 * 8192,
    ),
    Scenario(
        name="failure-storm",
        description=(
            "10% of 16k nodes fail obliviously before the broadcast; "
            "Theorem 19: all but o(F) survivors still informed."
        ),
        n=2**14,
        algorithm="cluster2",
        message_bits=512,
        failures=2**14 // 10,
    ),
    Scenario(
        name="bounded-fanin-datacenter",
        description=(
            "Top-of-rack style fan-in limits: a Δ=128 clustering keeps "
            "every node under 128 connections per round (Theorem 4)."
        ),
        n=2**13,
        algorithm="cluster3",
        message_bits=512,
        kwargs={"delta": 128},
    ),
    Scenario(
        name="low-latency-smalljob",
        description=(
            "A small 1k-node job where simplicity beats thrift — "
            "Cluster1 (or push-pull) spreads fastest in wall-clock "
            "rounds at this scale."
        ),
        n=2**10,
        algorithm="cluster1",
        message_bits=256,
    ),
    # ------------------------------------------------------------------
    # Dynamic-adversity presets (repro.sim.dynamics): churn, loss and
    # fault timelines driven through the round engine mid-execution.
    # ------------------------------------------------------------------
    Scenario(
        name="churn-light",
        description=(
            "Gentle per-round Bernoulli churn (0.05%/node/round) under "
            "PUSH-PULL — baseline robustness of plain gossip."
        ),
        n=2**11,
        algorithm="push-pull",
        message_bits=256,
        schedule="churn-light",
    ),
    Scenario(
        name="churn-heavy",
        description=(
            "Hard churn: a 0.4% Bernoulli trickle plus a 5% crash burst "
            "at round 4; PUSH-PULL must out-spread the failures."
        ),
        n=2**11,
        algorithm="push-pull",
        message_bits=256,
        schedule="churn-heavy",
    ),
    Scenario(
        name="lossy-datacenter",
        description=(
            "A congested fabric drops 2% of messages i.i.d.; the PULL "
            "tail keeps retrying until everyone is informed."
        ),
        n=2**11,
        algorithm="push-pull",
        message_bits=512,
        schedule="lossy-datacenter",
    ),
    Scenario(
        name="blackout-partition",
        description=(
            "A quarter of the nodes are unreachable during rounds 3-8 "
            "(rack blackout) and must catch up after reconnecting."
        ),
        n=2**11,
        algorithm="push-pull",
        message_bits=256,
        schedule="blackout-partition",
    ),
    Scenario(
        name="failure-storm-dynamic",
        description=(
            "The failure-storm preset made dynamic: 10% of the nodes "
            "crash at round 3 — mid-run — instead of before the start."
        ),
        n=2**12,
        algorithm="cluster2",
        message_bits=512,
        schedule="crash-burst",
    ),
    Scenario(
        name="membership-update-flaky",
        description=(
            "The membership-update preset on a flaky network: 20% "
            "message loss during Cluster2's first 6 rounds."
        ),
        n=2**12,
        algorithm="cluster2",
        message_bits=512,
        schedule="flaky-start",
    ),
    # ------------------------------------------------------------------
    # Task-layer presets (repro.tasks): the same engine and transports,
    # richer workload semantics — all-cast, averaging, extrema.
    # ------------------------------------------------------------------
    Scenario(
        name="all-cast-k8",
        description=(
            "8 independent rumors start at 8 sources; everyone must "
            "collect all 8 (k-rumor all-cast over PUSH-PULL)."
        ),
        n=2**12,
        algorithm="push-pull",
        message_bits=256,
        task="k-rumor",
        task_kwargs={"k": 8},
    ),
    Scenario(
        name="mean-estimation",
        description=(
            "Push-sum averaging over uniform gossip: every node's "
            "value/weight estimate converges to the true mean."
        ),
        n=2**12,
        algorithm="push-pull",
        message_bits=256,
        task="push-sum",
        task_kwargs={"tol": 1e-3},
    ),
    Scenario(
        name="cluster-aggregation",
        description=(
            "Push-sum over Cluster2's structure: direct addressing "
            "gathers the mass to the spanning cluster's leader in O(1) "
            "rounds after construction."
        ),
        n=2**12,
        algorithm="cluster2",
        message_bits=256,
        task="push-sum",
        task_kwargs={"tol": 1e-3},
    ),
    Scenario(
        name="aggregation-under-churn",
        description=(
            "Mean estimation while nodes crash: push-sum under the "
            "churn-light schedule — lost nodes take their mass with "
            "them, so the converged estimate drifts from the initial "
            "mean (measured, not hidden)."
        ),
        n=2**11,
        algorithm="push-pull",
        message_bits=256,
        task="push-sum",
        task_kwargs={"tol": 5e-2},
        schedule="churn-light",
    ),
    Scenario(
        name="extrema-broadcast",
        description=(
            "Min dissemination over Cluster2: the idempotent aggregate "
            "rides the cluster gather/scatter and every node learns the "
            "global minimum."
        ),
        n=2**12,
        algorithm="cluster2",
        message_bits=256,
        task="min-max",
    ),
    # ------------------------------------------------------------------
    # Topology presets (repro.sim.topology): the same algorithms and
    # tasks once the complete contact graph is gone.
    # ------------------------------------------------------------------
    Scenario(
        name="ring-broadcast",
        description=(
            "PUSH-PULL on a k=4 ring: the Theta(n/k) worst case — the "
            "far end of the degree spectrum E16 walks."
        ),
        n=2**9,
        algorithm="push-pull",
        message_bits=256,
        topology=Ring(k=4),
        kwargs={"max_rounds": _diameter_round_budget(Ring(k=4), 2**9)},
    ),
    Scenario(
        name="sparse-regular-aggregation",
        description=(
            "Push-sum averaging on a random 8-regular contact graph: "
            "aggregation still mixes in O(log n) rounds on a sparse "
            "expander."
        ),
        n=2**11,
        algorithm="push-pull",
        message_bits=256,
        task="push-sum",
        task_kwargs={"tol": 1e-2},
        topology=RandomRegular(d=8),
    ),
    Scenario(
        name="expander-vs-complete",
        description=(
            "Cluster2 on a random 16-regular expander with global "
            "direct addressing: within a few rounds and messages of "
            "the complete-graph membership-update preset — what "
            "learned addresses buy once the complete graph is gone."
        ),
        n=2**12,
        algorithm="cluster2",
        message_bits=512,
        topology=RandomRegular(d=16),
    ),
    # ------------------------------------------------------------------
    # Event-tier presets (repro.sim.schedule): the same logical
    # executions timed by the event-tier scheduler under heterogeneous
    # per-contact latencies — rounds/messages/bits stay bit-identical to
    # the round engine; only ``sim_time`` changes.
    # ------------------------------------------------------------------
    Scenario(
        name="straggler-tail",
        description=(
            "2% of the nodes are 10x slower than the rest; logical "
            "round/message counts match the round engine, but the "
            "event clock shows the stragglers stretching completion "
            "time (the synchronous model hides this tail).  Rerun with "
            "--trace to see critical-path attribution name the "
            "straggler nodes (gated in benchmarks/bench_trace.py)."
        ),
        n=2**11,
        algorithm="push-pull",
        message_bits=256,
        scheduler=EventSchedulerSpec(
            delay=NodeSlowdownDelay(base=1.0, fraction=0.02, factor=10.0)
        ),
    ),
    Scenario(
        name="skewed-wan",
        description=(
            "PUSH-PULL on a random 8-regular overlay whose links carry "
            "lognormal WAN-like latencies: a few slow transatlantic "
            "edges dominate the simulated completion time."
        ),
        n=2**11,
        algorithm="push-pull",
        message_bits=256,
        topology=RandomRegular(d=8, delay=EdgeWeightedDelay(scale=1.0, sigma=1.0)),
        scheduler="event",
    ),
    Scenario(
        name="rate-limited-edge",
        description=(
            "A k=4 ring where 5% of the links are rate-limited to 20x "
            "the base latency: the broadcast frontier stalls wherever "
            "it must cross a throttled edge."
        ),
        n=2**9,
        algorithm="push-pull",
        message_bits=256,
        topology=Ring(k=4, delay=RateLimitedEdgeDelay(base=1.0, fraction=0.05, factor=20.0)),
        scheduler="event",
        kwargs={"max_rounds": _diameter_round_budget(Ring(k=4), 2**9)},
    ),
    # ------------------------------------------------------------------
    # Scale tier (heavy): production-sized networks, run by name through
    # the replication layer — excluded from whole-catalogue smoke sweeps.
    # ------------------------------------------------------------------
    Scenario(
        name="planet-scale",
        description=(
            "A million-node (2^20) PUSH-PULL broadcast — the scale at "
            "which the w.h.p. claims become visible; replications run "
            "through the vectorised batch executor."
        ),
        n=2**20,
        algorithm="push-pull",
        message_bits=256,
        reps=5,
        heavy=True,
    ),
    Scenario(
        name="mega-cluster",
        description=(
            "A quarter-million-node (2^18) Cluster2 broadcast — optimal "
            "message cost at production scale (auto-resolves to the "
            "batched vector engine since the cluster pipeline gained "
            "(R, n) runners)."
        ),
        n=2**18,
        algorithm="cluster2",
        message_bits=512,
        reps=3,
        heavy=True,
    ),
]:
    register_scenario(_scenario)
del _scenario


def scenario_names(*, include_heavy: bool = True) -> List[str]:
    """Registered scenario names, sorted; ``include_heavy=False`` drops
    the large-n scale-tier presets (what whole-catalogue sweeps use)."""
    return sorted(
        name
        for name, sc in SCENARIOS.items()
        if include_heavy or not sc.heavy
    )


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None


def run_scenario(name: str, seed: int = 0, **overrides: Any) -> AlgorithmReport:
    """Run a named scenario."""
    return get_scenario(name).run(seed=seed, **overrides)


@dataclass(frozen=True)
class SuiteRecord:
    """One suite cell: which scenario produced which record."""

    scenario: str
    record: RunRecord


def run_suite(
    names: Optional[Sequence[str]] = None,
    seeds: Iterable[int] = (0,),
    *,
    workers: int = 1,
    progress=None,
) -> List[SuiteRecord]:
    """Sweep a scenario × seed grid through the job executor.

    ``names`` defaults to the whole catalogue *minus* the heavy
    scale-tier presets (ask for those by name).  Jobs fan out over
    ``workers`` processes (same bit-identical guarantee as
    :func:`repro.analysis.runner.sweep`); results come back
    scenario-major in catalogue order.
    """
    names = list(names) if names is not None else scenario_names(include_heavy=False)
    seeds = list(seeds)
    cells: List[Tuple[str, RunSpec]] = [
        (name, get_scenario(name).run_spec(seed))
        for name in names
        for seed in seeds
    ]
    records = execute(
        [spec for _, spec in cells], workers=workers, progress=progress
    )
    return [
        SuiteRecord(scenario=name, record=rec)
        for (name, _), rec in zip(cells, records)
    ]


@dataclass(frozen=True)
class SuiteReplication:
    """One replicated suite cell: a scenario and its streamed aggregate."""

    scenario: str
    summary: "ReplicationSummary"


def replicate_suite(
    names: Optional[Sequence[str]] = None,
    reps: Optional[int] = None,
    *,
    base_seed: int = 0,
    engine: str = "auto",
    workers: int = 1,
    progress=None,
) -> "List[SuiteReplication]":
    """Run every named scenario as a streamed replication suite.

    ``reps`` overrides each scenario's own default replication count;
    ``names`` defaults to the non-heavy catalogue, like :func:`run_suite`.
    Cells fan out over ``workers`` processes; within a cell the
    replications stream through :func:`repro.core.broadcast.run_replications`
    (vector engine where the algorithm supports it, memory-lean reset
    engine otherwise), so no cell ever materialises its per-seed records.
    """
    names = list(names) if names is not None else scenario_names(include_heavy=False)
    specs = [
        get_scenario(name).run_spec(
            seed=base_seed,
            reps=reps if reps is not None else get_scenario(name).reps,
            engine=engine,
        )
        for name in names
    ]
    summaries = execute(specs, workers=workers, progress=progress, job=replicate_spec)
    return [
        SuiteReplication(scenario=name, summary=summary)
        for name, summary in zip(names, summaries)
    ]
