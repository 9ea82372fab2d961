"""Experiment sweeps: grids expand into flat jobs, jobs run on N cores.

Every bench builds on :func:`sweep`: a grid is expanded by
:func:`expand_grid` into picklable :class:`RunSpec` jobs, and
:func:`execute` runs them either serially or on a
``concurrent.futures.ProcessPoolExecutor`` (``workers=``).  Each job
derives every random stream from its own seed, so records are
**bit-identical regardless of worker count or completion order** —
results are always reassembled in deterministic grid order.  Records are
plain dataclasses so tables, fits and tests consume them without pandas.

:meth:`RunSpec.of` is the one job constructor: it takes any keyword
:func:`~repro.core.broadcast.broadcast` takes (the run settings declared
by :func:`~repro.core.broadcast.check_config`, and algorithm knobs) plus
the job's own fields, so :func:`run_once`, :func:`expand_grid`,
:func:`sweep` and :func:`replication_sweep` forward their keywords to it
unread.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.analysis.stats import ReplicationSummary, Summary, summarize
from repro.core.broadcast import RUN_SETTINGS, broadcast, run_replications
from repro.core.result import AlgorithmReport
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.sim.dynamics import AdversitySchedule
from repro.sim.schedule import EventSchedulerSpec
from repro.sim.topology import Topology


@dataclass(frozen=True)
class RunSpec:
    """One flat, picklable job: everything :func:`broadcast` needs.

    The unit of work the sweep executor ships to worker processes;
    scenario suites (:mod:`repro.workloads.scenarios`) compile to these
    too, so every grid in the library runs through one executor.
    ``schedule`` (an :class:`~repro.sim.dynamics.AdversitySchedule`) is
    itself a frozen, picklable spec, so dynamic-adversity jobs fan out
    with the same bit-identical-for-any-worker-count guarantee.

    ``reps`` makes the job a *replication suite*: executed via
    :func:`replicate_spec`, it fans ``seed .. seed + reps - 1`` through
    :func:`repro.core.broadcast.run_replications` on the ``engine`` of
    choice and returns a streamed
    :class:`~repro.analysis.stats.ReplicationSummary` instead of one
    record per seed.
    """

    algorithm: str
    n: int
    seed: int
    source: Optional[int] = 0
    message_bits: int = 256
    failures: float = 0
    failure_pattern: str = "random"
    schedule: Optional[AdversitySchedule] = None
    task: str = "broadcast"
    task_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Contact topology (a frozen :class:`~repro.sim.topology.Topology`
    #: spec or a registered name); None is the paper's complete graph.
    topology: "Topology | str | None" = None
    direct_addressing: str = "global"
    #: Execution tier: None/"round" is the synchronous round engine,
    #: "event" (or a frozen :class:`~repro.sim.schedule.EventSchedulerSpec`)
    #: overlays per-node clocks on the same logical execution.
    scheduler: "EventSchedulerSpec | str | None" = None
    reps: int = 1
    engine: str = "auto"
    #: Optional frozen telemetry knobs: the job builds a collector inside
    #: its worker process, threads it through the engines, and hands it
    #: back on the result (``report.extras["telemetry"]`` /
    #: ``summary.telemetry``) for the parent to merge and export.
    telemetry: Optional[TelemetryConfig] = None
    #: Contact-level causal tracing (event tier; upgrades the scheduler
    #: when none is set).  Reports gain critical_path_len/dilation
    #: extras; replication summaries gain the matching streams.
    trace: bool = False
    kwargs: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def of(cls, algorithm: str, n: int, seed: int, **settings: Any) -> "RunSpec":
        """The job for ``algorithm`` at ``n`` and ``seed``: a keyword that
        names a field fills it, and every other keyword (``profile``, an
        algorithm knob) goes to ``kwargs``, so the job takes whatever
        :func:`broadcast` does."""
        own = {name: settings.pop(name) for name in list(settings) if name in _OWN_FIELDS}
        return cls(algorithm=algorithm, n=n, seed=seed, kwargs=settings, **own)

    def _collector(self) -> Optional[Telemetry]:
        return Telemetry.from_config(self.telemetry) if self.telemetry is not None else None

    def run(self) -> AlgorithmReport:
        """Execute this job once (at ``seed``), returning the full report."""
        if self.reps != 1:
            raise ValueError(f"a job with reps={self.reps} runs through replicate()")
        collector = self._collector()
        report = broadcast(
            self.n,
            self.algorithm,
            seed=self.seed,
            telemetry=collector,
            **settings_of(self),
        )
        if collector is not None:
            report.extras["telemetry"] = collector
        return report

    def replicate(self) -> ReplicationSummary:
        """Execute this job as a ``reps``-seed streamed replication suite."""
        collector = self._collector()
        summary = run_replications(
            self.n,
            self.algorithm,
            reps=self.reps,
            base_seed=self.seed,
            engine=self.engine,
            telemetry=collector,
            **settings_of(self),
        )
        if collector is not None:
            summary.telemetry = collector
        return summary

    def describe(self) -> str:
        tail = f" x{self.reps}" if self.reps > 1 else f" seed={self.seed}"
        middle = "" if self.task == "broadcast" else f" task={self.task}"
        where = ""
        if self.topology is not None:
            name = (
                self.topology
                if isinstance(self.topology, str)
                else self.topology.describe()
            )
            if name != "complete":
                where = f" @{name}"
        tier = ""
        if self.scheduler is not None and self.scheduler != "round":
            tier = (
                " [event]"
                if isinstance(self.scheduler, str)
                else f" [{self.scheduler.describe()}]"
            )
        return f"{self.algorithm}{middle}{where}{tier} n={self.n}{tail}"


#: The :class:`RunSpec` fields that :meth:`RunSpec.of` fills by name.
_OWN_FIELDS = {f.name for f in fields(RunSpec)} - {"algorithm", "n", "seed", "kwargs"}


def settings_of(job: Any) -> Dict[str, Any]:
    """What a :class:`RunSpec` or :class:`~repro.workloads.scenarios.Scenario`
    forwards to :func:`broadcast`: its fields that are run settings, by
    name, then its ``kwargs`` (algorithm knobs and any other setting)."""
    own = {f.name: getattr(job, f.name) for f in fields(job) if f.name in RUN_SETTINGS}
    return {**own, **job.kwargs}


@dataclass(frozen=True)
class RunRecord:
    """One execution's headline figures."""

    algorithm: str
    n: int
    seed: int
    rounds: int
    spread_rounds: int
    messages: int
    messages_per_node: float
    bits: int
    max_fanin: int
    informed_fraction: float
    success: bool
    extras: Dict[str, Any] = field(default_factory=dict)


def record_from_report(report: AlgorithmReport, spec: RunSpec) -> RunRecord:
    """Flatten a report into the picklable record the executor returns."""
    keep_extras = {
        k: v
        for k, v in report.extras.items()
        if isinstance(v, (int, float, str, bool))
    }
    return RunRecord(
        algorithm=spec.algorithm,
        n=spec.n,
        seed=spec.seed,
        rounds=report.rounds,
        spread_rounds=report.spread_rounds,
        messages=report.messages,
        messages_per_node=report.messages_per_node,
        bits=report.bits,
        max_fanin=report.max_fanin,
        informed_fraction=report.informed_fraction,
        success=report.success,
        extras=keep_extras,
    )


def run_spec(spec: RunSpec) -> RunRecord:
    """Top-level worker entry point (must stay module-level: it is
    pickled by name into pool processes)."""
    return record_from_report(spec.run(), spec)


def run_spec_report(spec: RunSpec) -> AlgorithmReport:
    """Worker entry point for report-shaped execution (benches that need
    clusterings, phase metrics, or ``uninformed_survivors``)."""
    return spec.run()


def replicate_spec(spec: RunSpec) -> ReplicationSummary:
    """Worker entry point for replication suites: one job = one streamed
    ``reps``-seed aggregate (``ReplicationSummary`` is picklable, so these
    fan out over the process pool like any other job)."""
    return spec.replicate()


def run_once(algorithm: str, n: int, seed: int, **settings: Any) -> RunRecord:
    """Run one configuration through :func:`repro.core.broadcast.broadcast`."""
    return run_spec(RunSpec.of(algorithm, n, seed, **settings))


def expand_grid(
    algorithms: Sequence[str], ns: Sequence[int], seeds: Sequence[int], **settings: Any
) -> List[RunSpec]:
    """Flatten an ``algorithm x n x seed`` grid into jobs, algorithm-major
    (the historical serial-loop order, which fixes the output order)."""
    return [
        RunSpec.of(algorithm, n, seed, **settings)
        for algorithm in algorithms
        for n in ns
        for seed in seeds
    ]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` knob: None/0/negative mean 'auto' = one per
    available core; 1 means serial."""
    if workers is None or workers <= 0:
        return max(1, os.cpu_count() or 1)
    return int(workers)


def execute(
    specs: Sequence[RunSpec],
    *,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    job: Callable[[RunSpec], Any] = run_spec,
) -> List[Any]:
    """Run jobs and return their results **in input order**.

    ``workers=1`` (default) runs in-process; ``workers>1`` fans jobs out
    to a process pool, ``workers<=0``/None one worker per core.  Each
    job's randomness derives from its own :class:`RunSpec` seed, so the
    result list is identical for every worker count.  ``job`` selects the
    execution shape: :func:`run_spec` (flat records, the default) or
    :func:`run_spec_report` (full reports).
    """
    workers = resolve_workers(workers)
    if workers == 1 or len(specs) <= 1:
        results = []
        for spec in specs:
            results.append(job(spec))
            if progress is not None:
                progress(f"{spec.describe()} done")
        return results

    results: List[Any] = [None] * len(specs)
    with ProcessPoolExecutor(max_workers=min(workers, len(specs))) as pool:
        pending = {pool.submit(job, spec): i for i, spec in enumerate(specs)}
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                i = pending.pop(fut)
                results[i] = fut.result()
                if progress is not None:
                    progress(f"{specs[i].describe()} done")
    return results


def sweep(
    algorithms: Sequence[str],
    ns: Sequence[int],
    seeds: Sequence[int],
    *,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    **settings: Any,
) -> List[RunRecord]:
    """Full grid sweep; deterministic given the seed list, bit-identical
    for every ``workers`` value."""
    specs = expand_grid(algorithms, ns, seeds, **settings)
    return execute(specs, workers=workers, progress=progress)


def replication_sweep(
    algorithms: Sequence[str],
    ns: Sequence[int],
    reps: int,
    *,
    base_seed: int = 0,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    **settings: Any,
) -> List[ReplicationSummary]:
    """An ``algorithm x n`` grid where every cell is a ``reps``-seed
    streamed replication suite (cells fan out over ``workers`` processes;
    within a cell the replications stream through one engine, ``engine=``
    ``"auto"`` unless given)."""
    specs = [
        RunSpec.of(algorithm, n, base_seed, reps=reps, **settings)
        for algorithm in algorithms
        for n in ns
    ]
    return execute(specs, workers=workers, progress=progress, job=replicate_spec)


def sweep_reports(
    specs: Sequence[RunSpec],
    *,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> List[AlgorithmReport]:
    """Execute jobs returning full :class:`AlgorithmReport` objects
    (still in input order; reports are picklable, just heavier)."""
    return execute(specs, workers=workers, progress=progress, job=run_spec_report)


@dataclass(frozen=True)
class AggregateRow:
    """Per-(algorithm, n) summary across seeds."""

    algorithm: str
    n: int
    runs: int
    spread_rounds: Summary
    messages_per_node: Summary
    bits_per_node: Summary
    max_fanin: int
    success_rate: float


def aggregate(records: Iterable[RunRecord]) -> List[AggregateRow]:
    """Group records by (algorithm, n), summarising across seeds."""
    groups: Dict[tuple, List[RunRecord]] = {}
    for rec in records:
        groups.setdefault((rec.algorithm, rec.n), []).append(rec)
    rows: List[AggregateRow] = []
    for (algorithm, n), recs in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        rows.append(
            AggregateRow(
                algorithm=algorithm,
                n=n,
                runs=len(recs),
                spread_rounds=summarize([r.spread_rounds for r in recs]),
                messages_per_node=summarize([r.messages_per_node for r in recs]),
                bits_per_node=summarize([r.bits / r.n for r in recs]),
                max_fanin=max(r.max_fanin for r in recs),
                success_rate=sum(r.success for r in recs) / len(recs),
            )
        )
    return rows


def series(
    rows: Iterable[AggregateRow], algorithm: str, value: str = "spread_rounds"
) -> "tuple[list[int], list[float]]":
    """Extract the (ns, means) curve of one algorithm from aggregates."""
    pts = [
        (row.n, getattr(row, value).mean)
        for row in rows
        if row.algorithm == algorithm
    ]
    pts.sort()
    return [p[0] for p in pts], [p[1] for p in pts]
