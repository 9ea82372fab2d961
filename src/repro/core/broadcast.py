"""One-call public API: build a network, run an algorithm, get a report.

    >>> from repro import broadcast
    >>> result = broadcast(n=4096, algorithm="cluster2", seed=7)
    >>> result.success, result.rounds, round(result.messages_per_node, 1)
    (True, ..., ...)

Dispatch is a thin lookup in :mod:`repro.registry`: every algorithm —
the paper's and every baseline — self-registers an
:class:`~repro.registry.AlgorithmSpec`, so sweeps in
:mod:`repro.analysis.runner` iterate the same catalogue uniformly and
third-party algorithms plug in without touching this module.

Besides ``n``, the algorithm and the seed, a run is fixed by twelve run
settings, declared once as the keyword-only parameters of
:func:`check_config` (:data:`RUN_SETTINGS`).  Every entry point takes
them with the algorithm's knobs as one ``**settings`` mapping, which
:func:`check_settings` splits.

``task`` selects the workload semantics (:mod:`repro.tasks`): the
default ``"broadcast"`` is the paper's single-rumor setting on the
untouched legacy path (bit-identical output for a fixed seed); any other
registered task — ``"k-rumor"``, ``"push-sum"``, ``"min-max"`` — builds
a :class:`~repro.tasks.state.TaskState` from its own seed stream and
runs it through the algorithm's registered task transport::

    >>> broadcast(n=4096, algorithm="cluster2", task="push-sum",
    ...           schedule="churn-light", seed=7)   # doctest: +SKIP
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Any, Callable, Dict, NamedTuple, Optional

from repro.core.constants import LAPTOP, Profile, get_profile
from repro.core.result import AlgorithmReport
from repro.registry import (
    BROADCAST_TASK,
    AlgorithmSpec,
    IncompatibleTaskError,
    IncompatibleTopologyError,
    algorithm_names,
    check_knobs,
    compatible_algorithms,
    compatible_topologies,
    get_algorithm,
    get_task,
)
from repro.obs.spans import maybe_span
from repro.sim.batch import (
    DEFAULT_BATCH_ELEMS,
    batch_size,
    check_max_rounds,
    check_positive_int,
    is_integer,
)
from repro.sim.dynamics import AdversitySchedule, resolve_schedule
from repro.sim.schedule import (
    EventSchedulerSpec,
    make_batch_overlay,
    resolve_scheduler,
)
from repro.sim.topology import ADDRESSING_MODES, Topology, resolve_topology
from repro.sim.engine import Simulator
from repro.sim.failures import apply_pattern, check_failures
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.rng import derive_seed, make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.stats import ReplicationSummary
    from repro.obs.telemetry import Telemetry

#: Re-exported so ``from repro import BroadcastResult`` reads naturally.
BroadcastResult = AlgorithmReport

__all__ = [
    "BroadcastResult",
    "CheckedConfig",
    "RUN_SETTINGS",
    "ReplicationEngine",
    "algorithm_names",
    "broadcast",
    "check_config",
    "check_settings",
    "run_replications",
    "vector_unavailable",
]


class CheckedConfig(NamedTuple):
    """A checked run configuration: its settings with every name resolved
    to the object it names, and the batch runner registered for its task
    (``None`` if there is none) with the names of that runner's
    parameters."""

    n: int
    spec: AlgorithmSpec
    source: Optional[int]
    message_bits: int
    failures: float
    failure_pattern: str
    schedule: Optional[AdversitySchedule]
    task: str
    task_kwargs: Dict[str, Any]
    topology: Topology
    direct_addressing: str
    scheduler: Optional[EventSchedulerSpec]
    profile: Profile
    algorithm_kwargs: Dict[str, Any]
    runner: Optional[Callable[..., Any]]
    runner_accepts: frozenset[str]

    def settings(self) -> Dict[str, Any]:
        """The resolved run settings, as :func:`check_config` keywords
        (``trace`` rides in the resolved scheduler)."""
        return {name: getattr(self, name) for name in self._fields if name in RUN_SETTINGS}


def check_config(
    n: int,
    algorithm: str = "cluster2",
    algorithm_kwargs: Optional[Dict[str, Any]] = None,
    reps: Optional[int] = None,
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    batch_elems: Optional[int] = None,
    *,
    source: Optional[int] = 0,
    message_bits: int = 256,
    failures: float = 0,
    failure_pattern: str = "random",
    schedule: "AdversitySchedule | str | None" = None,
    task: str = BROADCAST_TASK,
    task_kwargs: Optional[Dict[str, Any]] = None,
    topology: "Topology | str | None" = None,
    direct_addressing: str = "global",
    scheduler: "EventSchedulerSpec | str | None" = None,
    profile: "Profile | str" = LAPTOP,
    trace: bool = False,
) -> CheckedConfig:
    """Check a whole run configuration before any engine runs, and return
    it resolved, as the :class:`CheckedConfig` every engine runs from.

    This is where the run settings are declared: they are its
    keyword-only parameters (:data:`RUN_SETTINGS`; :func:`broadcast`
    documents each).  A new setting is one keyword here, plus a
    :class:`CheckedConfig` field where the engines read it.  The
    replication knobs are checked only when given, so an error reads the
    same from :func:`broadcast` and :func:`run_replications`.

    Every entry point calls this through :func:`check_settings` (and
    :func:`run_replications` once, before it picks an engine), so a bad
    configuration is one single-line ``ValueError`` (or a subclass such as
    :class:`~repro.registry.IncompatibleTaskError`) on every engine.
    Rules an algorithm, a task state or a graph owns stay with it:
    Cluster2's ``n >= 4``, the task knobs' values
    (:func:`repro.tasks.state.check_k` and its siblings), a ring's ``n > 2k``.
    """
    check_positive_int("n", n)
    if source is not None:
        if not is_integer(source):
            raise ValueError(f"source must be a node index or None, got {source}")
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range for n={n}")
    spec = get_algorithm(algorithm)
    if not spec.broadcastable:
        raise ValueError(
            f"algorithm {spec.name!r} (category {spec.category!r}) is not "
            "a broadcast algorithm; call its entry point directly"
        )
    check_knobs(f"algorithm {spec.name!r}", algorithm_kwargs, spec.kwargs)
    check_max_rounds((algorithm_kwargs or {}).get("max_rounds"))
    task_spec = get_task(task)
    if not spec.supports_task(task):
        raise IncompatibleTaskError(
            f"algorithm {spec.name!r} cannot run task {task!r}: it has no "
            f"registered task transport; compatible algorithms: "
            f"{compatible_algorithms(task)}"
        )
    task_spec.validate_kwargs(task_kwargs)
    topology = resolve_topology(topology)
    schedule = resolve_schedule(schedule)
    scheduler = resolve_scheduler(scheduler, trace=trace)
    profile = get_profile(profile) if isinstance(profile, str) else profile
    if direct_addressing not in ADDRESSING_MODES:
        raise ValueError(
            f"direct_addressing must be one of {ADDRESSING_MODES}, "
            f"got {direct_addressing!r}"
        )
    if not spec.supports_topology(topology):
        raise IncompatibleTopologyError(
            f"algorithm {spec.name!r} only runs on the complete contact "
            f"graph, not on {topology.describe()!r}; compatible "
            f"topologies: {compatible_topologies(spec.name)}"
        )
    check_positive_int("rumor_bits", message_bits)
    check_failures(n, failure_pattern, failures)
    replication = {"reps": reps, "workers": workers, "batch_elems": batch_elems}
    for name, value in replication.items():
        if value is not None:
            check_positive_int(name, value)
    if engine is not None and engine not in REPLICATION_ENGINES:
        raise ValueError(
            f"unknown replication engine {engine!r}; choose from {REPLICATION_ENGINES}"
        )
    runner = spec.batch_runner_for(task)
    return CheckedConfig(
        n=n,
        spec=spec,
        source=source,
        message_bits=message_bits,
        failures=failures,
        failure_pattern=failure_pattern,
        schedule=schedule,
        task=task,
        task_kwargs=dict(task_kwargs or {}),
        topology=topology,
        direct_addressing=direct_addressing,
        scheduler=scheduler,
        profile=profile,
        algorithm_kwargs=dict(algorithm_kwargs or {}),
        runner=runner,
        runner_accepts=frozenset(inspect.signature(runner).parameters if runner else ()),
    )


#: The run settings' names: the keyword-only parameters of :func:`check_config`.
RUN_SETTINGS = frozenset(
    name
    for name, parameter in inspect.signature(check_config).parameters.items()
    if parameter.kind is parameter.KEYWORD_ONLY
)


def check_settings(
    n: int, algorithm: str, settings: Dict[str, Any], **replication: Any
) -> CheckedConfig:
    """:func:`check_config` on one keyword mapping, as the entry points
    take it: a name in :data:`RUN_SETTINGS` is a run setting, every other
    name an algorithm knob (refused unless the algorithm declares it).
    ``replication`` holds :func:`run_replications`' own knobs."""
    knobs = {name: value for name, value in settings.items() if name not in RUN_SETTINGS}
    chosen = {name: value for name, value in settings.items() if name in RUN_SETTINGS}
    return check_config(n, algorithm, knobs, **replication, **chosen)


def _checked_seed(name: str, seed: Any) -> int:
    """A master seed, checked like the rest of a run's inputs: a
    non-negative integer (numpy integers accepted, ``bool`` refused), or a
    one-line ``ValueError`` naming the keyword ``name``."""
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed}")
    return int(seed)


def vector_unavailable(config: CheckedConfig) -> Optional[str]:
    """Why a checked configuration cannot run on the vector engine, or
    ``None`` if it can: the one engine choice.  ``engine="vector"`` raises
    with the reason; ``engine="auto"`` falls back to ``"reset"`` and
    records it in ``extras["engine_fallback"]``.  A batch runner opts into
    bound graphs and the clock overlay by accepting ``graph=`` and
    ``overlay=``.
    """
    if config.runner is None:
        return f"no batch runner is registered for task {config.task!r}"
    if config.schedule is not None:
        return "an adversity schedule needs the sequential engine"
    if config.failures:
        return "pre-run failures need the sequential engine"
    if config.n < 2:
        return "the (R, n) runners need n >= 2 (another node to dial)"
    if not config.topology.complete:
        if "graph" not in config.runner_accepts:
            return "its batch runner does not accept graph= (a restricted topology)"
        if config.direct_addressing != "global":
            # The batched relays deliver without a reachability check.
            return "direct_addressing='topology' needs the sequential engine"
    if config.scheduler is not None:
        if config.scheduler.trace:
            return "traced scheduler=event runs need the sequential scheduler"
        if "overlay" not in config.runner_accepts:
            return "its batch runner does not accept overlay= (scheduler=event)"
    return None


def broadcast(
    n: int,
    algorithm: str = "cluster2",
    *,
    seed: int = 0,
    telemetry: "Optional[Telemetry]" = None,
    **settings: Any,
) -> AlgorithmReport:
    """Broadcast a ``message_bits``-bit rumor from ``source`` to all nodes.

    This is the first run of a one-seed :class:`ReplicationEngine`, so
    ``broadcast(seed=s)`` and replication ``s`` of the reset engine differ
    only in whether the network was built or reset.

    Parameters
    ----------
    n:
        Network size.
    algorithm:
        One of :func:`repro.registry.algorithm_names` (default the
        paper's Cluster2).
    seed:
        Master seed, a non-negative integer; network addressing, failures
        and the algorithm's coins all derive deterministic substreams
        from it.
    source:
        Index of the initially informed node, or None for a uniformly
        random *surviving* node (Theorem 19's setting: the rumor starts at
        some live node).
    message_bits:
        Rumor size ``b`` (must be positive; the paper assumes
        ``b = Omega(log n)``).
    failures:
        Number of nodes an oblivious adversary fails before the start
        (Section 8); with ``failure_pattern="fraction"`` it is instead the
        fraction in [0, 1) of nodes to fail.
    failure_pattern:
        ``"random"``, ``"prefix"``, ``"smallest-uids"`` or ``"fraction"``.
    schedule:
        Optional dynamic-adversity timeline
        (:class:`repro.sim.dynamics.AdversitySchedule`, a preset name, or
        a ``parse_schedule`` spec string): mid-run crashes, revivals,
        blackouts and message loss applied at round boundaries.  ``None``
        or an empty schedule leaves the engine on the untouched static
        path (bit-identical output for a fixed seed).
    task:
        Workload semantics (:func:`repro.registry.task_names`): the
        default ``"broadcast"`` is the legacy single-rumor path; other
        tasks run through the algorithm's registered task transport and
        must be compatible (:func:`repro.registry.supports_task`).
    task_kwargs:
        Extra knobs for the task's state factory (e.g. ``{"k": 8}`` for
        ``k-rumor``, ``{"tol": 1e-4}`` for ``push-sum``).
    topology:
        Contact topology (:mod:`repro.sim.topology`): a frozen
        :class:`~repro.sim.topology.Topology` spec, a registered name
        (:func:`repro.registry.topology_names`), or ``None`` for the
        paper's complete graph — the default, bit-identical to the
        pre-topology engine.  Random topologies are re-sampled per seed
        from the network's own stream.
    direct_addressing:
        ``"global"`` (the paper's model, default): learned addresses are
        routable regardless of the contact graph.  ``"topology"``:
        direct calls only connect along contact-graph edges — the
        experiment that measures what direct addressing is worth once
        the complete graph is gone.
    scheduler:
        Execution tier (:mod:`repro.sim.schedule`): ``None`` or
        ``"round"`` (default) keeps the synchronous round clock on the
        untouched engine path; ``"event"`` or an
        :class:`~repro.sim.schedule.EventSchedulerSpec` overlays
        per-node clocks and contact latencies on the same logical
        rounds — metrics stay bit-identical, and the report gains
        ``extras["sim_time"]`` (the simulated completion time).  Delay
        resolution: explicit spec delay > topology ``delay=``
        annotation > unit constant.
    trace:
        ``True`` turns on contact-level causal tracing on the event
        tier: the scheduler (upgraded to the event tier when none was
        requested) fills a :class:`~repro.obs.trace.ContactTrace`, and
        the report gains ``extras["contact_trace"]`` /
        ``extras["critical_path"]`` / ``extras["critical_path_len"]`` /
        ``extras["dilation"]``.
    profile:
        Constant-resolution profile or its name.
    telemetry:
        Optional :class:`repro.obs.telemetry.Telemetry` collector.  When
        given, the run records wall-clock phase spans, a per-round probe
        series and (unless event collection is off) the algorithm's
        coarse events (``grow.push``, ``done``, ... — see
        :meth:`~repro.sim.engine.Simulator.emit`) as ``event`` records
        into a run handle on the collector; export with
        :meth:`~repro.obs.telemetry.Telemetry.write`.  ``None`` (default)
        leaves the engine on the untouched zero-overhead path.
    settings:
        ``source`` to ``profile`` above: the run settings, declared by
        :func:`check_config`.  Every other keyword is an algorithm knob
        (its :class:`~repro.registry.AlgorithmSpec` lists the accepted
        names, e.g. ``delta=64`` for ``cluster3``).
    """
    seed = _checked_seed("seed", seed)
    return ReplicationEngine(n, algorithm, **settings).run(seed, telemetry=telemetry)


def _run_on_network(
    net: Network,
    config: CheckedConfig,
    seed: int,
    telemetry: "Optional[Telemetry]" = None,
) -> AlgorithmReport:
    """Execute one seeded broadcast on a built or reset network.

    Every seed-derived stream is the same whether the network was just
    built or reset, which is what makes reset-engine replications
    bit-identical to independent :func:`broadcast` calls.  Non-broadcast
    tasks derive their initial state from the dedicated ``"task"`` seed
    stream — the legacy streams are untouched, so the default task stays
    bit-identical to the pre-task-layer engine.
    """
    spec, source, task = config.spec, config.source, config.task
    failures = config.failures
    if failures:
        apply_pattern(net, config.failure_pattern, failures, derive_seed(seed, "fail"))
    if source is None:
        alive = net.alive_indices()
        source = int(alive[make_rng(derive_seed(seed, "source")).integers(len(alive))])
    dynamics = (
        config.schedule.bind(net, make_rng(derive_seed(seed, "dynamics")))
        if config.schedule is not None
        else None
    )
    # The event tier binds from the dedicated "delay" stream: straggler
    # sets, per-edge weights and per-message jitter never consume
    # algorithm coins, so event runs stay bit-identical to round runs.
    sched = (
        config.scheduler.bind(net, make_rng(derive_seed(seed, "delay")))
        if config.scheduler is not None
        else None
    )
    sim = Simulator(
        net,
        make_rng(derive_seed(seed, "algo")),
        Metrics(net.n),
        dynamics=dynamics,
        scheduler=sched,
    )
    tel_run = None
    if telemetry is not None:
        tel_run = telemetry.begin_run(
            {
                "kind": "sequential",
                "algorithm": spec.name,
                "task": task,
                "n": net.n,
                "seed": seed,
                "source": int(source),
                "message_bits": net.sizes.rumor_bits,
            }
        )
        # All sequential telemetry rides pre-existing attachment points
        # (commit hooks, Metrics.span_recorder): the engine's hot paths
        # are byte-identical whether telemetry is on or off.
        sim.telemetry = tel_run
        sim.metrics.span_recorder = tel_run.spans
        sim.add_commit_hook(tel_run.on_round)
        tel_run.sample(sim)  # round-0 baseline
    if task == BROADCAST_TASK:
        report = spec.run(sim, source, config.profile, **config.algorithm_kwargs)
    else:
        state = get_task(task).build(
            net,
            make_rng(derive_seed(seed, "task")),
            message_bits=net.sizes.rumor_bits,
            source=source,
            **config.task_kwargs,
        )
        report = spec.run_task(sim, state, config.profile, **config.algorithm_kwargs)
    # Causal-trace extras must land before finish_run so the telemetry
    # collector can serialise them into the schema v2 trace/path records.
    if (
        sched is not None
        and getattr(sched, "contacts", None) is not None
        and len(sched.contacts)
    ):
        path = sched.contacts.critical_path()
        report.extras.setdefault("contact_trace", sched.contacts)
        report.extras.setdefault("critical_path", path)
        report.extras.setdefault("critical_path_len", int(path.length))
        report.extras.setdefault(
            "dilation", float(sched.sim_time) / max(report.rounds, 1)
        )
    if tel_run is not None:
        telemetry.finish_run(tel_run, sim=sim, report=report)
    report.extras.setdefault("seed", seed)
    report.extras.setdefault("failures", failures)
    report.extras.setdefault("source", int(source))
    # Whether the initial rumor holder survived the run: under a dynamics
    # timeline it may crash mid-broadcast, and an execution whose only
    # copy of the rumor died is a model outcome, not a harness failure.
    report.extras.setdefault("source_alive", bool(sim.committed_alive[source]))
    if net.topology_restricted:
        report.extras.setdefault("topology", net.topology.describe())
        report.extras.setdefault("direct_addressing", net.direct_addressing)
    if sched is not None:
        report.extras.setdefault("scheduler", sched.describe())
        report.extras.setdefault("sim_time", float(sched.sim_time))
    if dynamics is not None:
        report.extras.setdefault("schedule", config.schedule.describe())
        for key, value in dynamics.summary().items():
            report.extras.setdefault(key, value)
    return report


class ReplicationEngine:
    """A reusable broadcast context: construction cost paid once, not per seed.

    Holds one :class:`~repro.sim.network.Network`, built on the first
    run and reset in place for every later seed (reusing its O(n)
    allocations), so a replication suite stops paying network
    construction for every seed.  Every seed's report is
    **bit-identical** to an independent ``broadcast(seed=...)`` call,
    which is this engine's first run (pinned by the fingerprint corpus
    in ``tests/test_fingerprints.py``).

    >>> eng = ReplicationEngine(4096, "cluster2")
    >>> reports = [eng.run(seed) for seed in range(100)]   # doctest: +SKIP
    """

    def __init__(self, n: int, algorithm: str = "cluster2", **settings: Any) -> None:
        self.config = check_settings(n, algorithm, settings)
        self._net: Optional[Network] = None

    @classmethod
    def _checked(cls, config: CheckedConfig) -> "ReplicationEngine":
        """An engine for a configuration :func:`check_config` already
        passed (:func:`run_replications` checks before it picks an engine)."""
        engine = cls.__new__(cls)
        engine.config = config
        engine._net = None
        return engine

    def run(
        self, seed: int, telemetry: "Optional[Telemetry]" = None
    ) -> AlgorithmReport:
        """Execute one replication, bit-identical to ``broadcast(seed=seed)``."""
        seed = _checked_seed("seed", seed)
        net_seed = derive_seed(seed, "net")
        if self._net is None:
            self._net = Network(
                int(self.config.n),
                rng=net_seed,
                rumor_bits=self.config.message_bits,
                topology=self.config.topology,
                direct_addressing=self.config.direct_addressing,
            )
        else:
            self._net.reset(net_seed)
        return _run_on_network(self._net, self.config, seed, telemetry)


#: Replication execution engines, least to most specialised.
REPLICATION_ENGINES = ("auto", "vector", "reset")


def run_replications(
    n: int,
    algorithm: str = "cluster2",
    reps: int = 1,
    *,
    base_seed: int = 0,
    engine: str = "auto",
    consume: Optional[Callable[[dict], None]] = None,
    batch_elems: int = DEFAULT_BATCH_ELEMS,
    workers: Optional[int] = None,
    telemetry: "Optional[Telemetry]" = None,
    _seed_offset: int = 0,
    **settings: Any,
) -> ReplicationSummary:
    """Fan one configuration across ``reps`` seeds, aggregating as a stream.

    Each replication is reduced to its headline scalars the moment it
    finishes and folded into a
    :class:`~repro.analysis.stats.ReplicationSummary` (exact
    mean/variance, min/max, compact quantile buffer, Wilson success
    interval) — a 500-seed suite holds a handful of numbers, never 500
    records.  ``consume`` (optional) additionally receives each
    replication's scalar dict as it streams past, e.g. for live CLI
    output or custom sinks.  ``settings`` are the run settings and
    algorithm knobs, as :func:`broadcast` takes them.

    Engines
    -------
    ``"reset"``
        The sequential engine (:class:`ReplicationEngine`): any
        algorithm, any schedule; one network is reset in place per seed.
        Replication ``i`` runs seed ``base_seed + i`` and is
        bit-identical to ``broadcast(seed=base_seed + i)``, so a loop of
        fresh :func:`broadcast` calls is no separate engine (E12 times
        that loop on its own, as its baseline).
    ``"vector"``
        The batched ``(R, n)`` executor (:mod:`repro.sim.batch`) for
        algorithms that registered a batch runner *for the requested
        task* (push-pull has one for ``"broadcast"`` and ``"push-sum"``);
        zero-adversity only.  Statistically equivalent to (not
        stream-identical with) the sequential engine; chunked so no
        work array exceeds ``batch_elems`` elements regardless of
        ``reps``.  ``scheduler=`` rides along through the batched clock
        overlay (:class:`repro.sim.schedule.BatchClockOverlay`) when the
        runner accepts ``overlay=`` — the summary then carries per-rep
        ``sim_time`` streams.  A configuration it cannot run raises
        ``vector engine unavailable for <algorithm> (task <task>):
        <reason>``, the reason from :func:`vector_unavailable`.
    ``"auto"``
        ``vector`` when :func:`vector_unavailable` gives no reason, else
        ``reset``, with the reason in ``extras["engine_fallback"]``.

    :func:`check_config` runs once, before the engine is picked, and
    every engine runs from the :class:`CheckedConfig` it returns, so a
    bad configuration (or ``base_seed``) is the same one-line
    ``ValueError`` whichever engine was asked for.

    Sharding
    --------
    ``workers`` switches on sharded execution: the replications are cut
    into contiguous ``(R_shard, n)`` blocks — the vector engine's own
    chunk plan, or up to 16 balanced blocks for the sequential engine —
    each shard streams its own summary (in a ``ProcessPoolExecutor``
    when ``workers > 1``), and the shard summaries merge in shard order
    via :meth:`~repro.analysis.stats.ReplicationSummary.merge`.  The
    shard plan and merge order depend only on the configuration, never
    on the worker count, so ``workers=1`` and ``workers=8`` produce
    identical summaries (exact mean/variance/extremes combine; quantile
    buffers merge approximately).  ``consume`` streaming is unavailable
    when sharding.  ``_seed_offset`` is internal plumbing: it keeps a
    vector shard's per-chunk seed derivation aligned with the serial
    chunk sequence.

    Telemetry
    ---------
    ``telemetry`` (a :class:`repro.obs.telemetry.Telemetry`) records one
    run handle per sequential replication, or one per vector chunk (the
    chunk is the vector engine's unit of execution — its spans time the
    recipe's phases, its series carries batch-aggregate samples).  A
    sequential run handle also holds the algorithm's coarse events
    (unless the collector's ``collect_events`` is off).  Sharded
    runs give each shard a fresh collector and merge them back in shard
    order, so the exported run ids are worker-count independent.

    ``trace=True`` turns on contact-level causal tracing (upgrading the
    scheduler to the event tier when none was requested): every
    replication extracts its critical path, and the summary gains
    ``critical_path_len`` / ``dilation`` streams.
    """
    # Imported here, not at module top: repro.analysis.runner imports this
    # module, so a top-level import of repro.analysis would be circular.
    from repro.analysis.stats import ReplicationSummary

    base_seed = _checked_seed("base_seed", base_seed)
    checked = check_settings(
        n,
        algorithm,
        settings,
        reps=reps,
        engine=engine,
        workers=workers,
        batch_elems=batch_elems,
    )
    if workers is not None and consume is not None:
        raise ValueError(
            "workers= shards the replications across summaries; "
            "per-replication consume streaming is only available serially"
        )
    reason = vector_unavailable(checked)
    if engine == "vector" and reason is not None:
        raise ValueError(
            f"vector engine unavailable for {algorithm!r} (task {checked.task!r}): "
            f"{reason}"
        )
    fallback_reason = reason if engine == "auto" else None
    if engine == "auto":
        engine = "reset" if reason is not None else "vector"
    # A task state whose positions hold w elements each (k-rumor: w = k)
    # weighs each node w, so the element budget bounds the true footprint
    # of its batch chunks, not just R * n.
    weight = 1
    if engine == "vector" and checked.task != BROADCAST_TASK:
        weight = get_task(checked.task).factory.elements_per_node(checked.task_kwargs)

    if workers is not None:
        # Each shard is its own run_replications call, in this process or
        # a worker's, and checks its configuration there.  It gets the
        # resolved settings (the resolved scheduler carries the trace flag).
        merged = _run_sharded(
            dict(
                checked.settings(),
                **checked.algorithm_kwargs,
                n=n,
                algorithm=algorithm,
                engine=engine,
                batch_elems=batch_elems,
                workers=None,
            ),
            reps=reps,
            base_seed=base_seed,
            weight=weight,
            workers=workers,
            telemetry=telemetry,
        )
        if fallback_reason is not None:
            merged.extras["engine_fallback"] = fallback_reason
        return merged

    summary = ReplicationSummary(algorithm=algorithm, n=n, engine=engine, task=checked.task)
    if fallback_reason is not None:
        summary.extras["engine_fallback"] = fallback_reason

    def feed(rep: int, seed: Optional[int], scalars: dict) -> None:
        summary.observe(**scalars)
        if consume is not None:
            consume({"rep": rep, "seed": seed, **scalars})

    if engine == "vector":
        runner_kwargs = {**checked.task_kwargs, **checked.algorithm_kwargs}
        if checked.spec.uses_profile:
            runner_kwargs["profile"] = checked.profile
        graph = None
        if not checked.topology.complete and checked.topology.deterministic:
            # Deterministic graphs are identical across replications and
            # chunks; bind once (the rng is required but unconsumed).
            graph = checked.topology.bind(n, make_rng(derive_seed(base_seed, "net")))
        for done, take in _shard_plan("vector", n, reps, batch_elems, weight):
            rng = make_rng(derive_seed(base_seed, "vector", _seed_offset + done))
            if not checked.topology.complete and not checked.topology.deterministic:
                # Random graphs resample per chunk: replications within a
                # chunk share one instance (documented approximation of
                # the sequential engine's per-seed graphs).
                graph = checked.topology.bind(
                    n, make_rng(derive_seed(base_seed, "vector-topo", _seed_offset + done))
                )
            chunk_kwargs = dict(runner_kwargs)
            if graph is not None:
                chunk_kwargs["graph"] = graph
            if checked.scheduler is not None:
                # One overlay per chunk: rep i's delay stream is derived
                # from base_seed + (global rep index) exactly as the
                # sequential bind's, so the chunk plan (and the worker
                # count) never moves a replication's draws.
                chunk_kwargs["overlay"] = make_batch_overlay(
                    checked.scheduler,
                    checked.topology,
                    n,
                    take,
                    graph,
                    base_seed=base_seed,
                    first_rep=_seed_offset + done,
                )
            tel_run = None
            if telemetry is not None:
                tel_run = telemetry.begin_run(
                    {
                        "kind": "vector",
                        "algorithm": algorithm,
                        "task": checked.task,
                        "n": n,
                        "reps": take,
                        "first_rep": _seed_offset + done,
                        "base_seed": base_seed,
                        "message_bits": checked.message_bits,
                    }
                )
                if "telemetry" in checked.runner_accepts:
                    chunk_kwargs["telemetry"] = tel_run
            with maybe_span(tel_run, "chunk"):
                outcome = checked.runner(
                    n,
                    take,
                    rng,
                    message_bits=checked.message_bits,
                    source=checked.source,
                    **chunk_kwargs,
                )
            if tel_run is not None:
                telemetry.finish_run(tel_run, outcome=outcome)
            for i in range(outcome.reps):
                feed(done + i, None, outcome.rep_scalars(i))
        return summary

    replication = ReplicationEngine._checked(checked)
    for rep in range(reps):
        seed = base_seed + rep
        report = replication.run(seed, telemetry=telemetry)
        feed(rep, seed, report_scalars(report))
    return summary


#: Sequential-engine shard count cap: enough blocks to feed any sane
#: worker pool while keeping per-shard engine setup amortised.
MAX_SEQUENTIAL_SHARDS = 16


def _replication_shard(payload: dict):
    """Process-pool entry point: one shard of a sharded run (top-level so
    it pickles).  Returns ``(summary, shard_telemetry_or_None)`` — the
    shard's collector mutates in the worker process, so it must travel
    back with the summary."""
    summary = run_replications(**payload)
    return summary, payload.get("telemetry")


def _shard_plan(
    engine: str,
    n: int,
    reps: int,
    batch_elems: int,
    elements_per_node: int,
) -> list:
    """Contiguous ``(start, count)`` shard blocks.

    The plan is a pure function of the configuration (never the worker
    count): vector shards are the chunks the serial vector loop walks
    (this one plan), sequential shards are balanced blocks, so any
    ``workers`` value yields the same shard summaries in the same merge
    order.
    """
    if engine == "vector":
        plan = []
        done = 0
        while done < reps:
            take = batch_size(n, reps - done, batch_elems, elements_per_node)
            plan.append((done, take))
            done += take
        return plan
    shards = min(reps, MAX_SEQUENTIAL_SHARDS)
    sizes = [reps // shards + (1 if i < reps % shards else 0) for i in range(shards)]
    starts = [sum(sizes[:i]) for i in range(shards)]
    return list(zip(starts, sizes))


def _run_sharded(
    common: Dict[str, Any],
    *,
    reps: int,
    base_seed: int,
    weight: int,
    workers: int,
    telemetry: "Optional[Telemetry]",
) -> "ReplicationSummary":
    """Split ``reps`` into shard blocks, run each as its own (serial)
    ``run_replications`` call on ``common`` (the run's keyword arguments
    bar the shard's own), merge the shard summaries (and shard telemetry
    collectors) in shard order."""
    from repro.analysis.runner import execute
    from repro.analysis.stats import ReplicationSummary

    engine, n = common["engine"], common["n"]
    payloads = []
    for start, count in _shard_plan(engine, n, reps, common["batch_elems"], weight):
        payload = dict(common, reps=count)
        if engine == "vector":
            # Vector shards replay the serial chunk sequence: same base
            # seed, chunk-aligned derivation offset.
            payload.update(base_seed=base_seed, _seed_offset=start)
        else:
            # Sequential shards: replication i still runs seed
            # base_seed + i, exactly as the serial loop would.
            payload.update(base_seed=base_seed + start)
        if telemetry is not None:
            # Fresh per-shard collector; merged back below in shard
            # order, so run ids never depend on the worker count.
            payload["telemetry"] = telemetry.spawn()
        payloads.append(payload)

    shard_results = execute(payloads, workers=workers, job=_replication_shard)
    merged = ReplicationSummary(
        algorithm=common["algorithm"], n=n, engine=engine, task=common["task"]
    )
    for shard, shard_telemetry in shard_results:
        merged.merge(shard)
        if telemetry is not None and shard_telemetry is not None:
            telemetry.merge(shard_telemetry)
    return merged


def report_scalars(report: AlgorithmReport) -> dict:
    """One report's figures in :meth:`ReplicationSummary.observe` shape."""
    scalars = {
        "rounds": report.rounds,
        "spread_rounds": report.spread_rounds,
        "messages_per_node": report.messages_per_node,
        "bits_per_node": report.bits_per_node,
        "max_fanin": report.max_fanin,
        "success": report.success,
    }
    if "task_error" in report.extras:
        scalars["task_error"] = float(report.extras["task_error"])
    if "task_error_repaired" in report.extras:
        scalars["task_error_repaired"] = float(report.extras["task_error_repaired"])
    if "sim_time" in report.extras:
        scalars["sim_time"] = float(report.extras["sim_time"])
    if "critical_path_len" in report.extras:
        scalars["critical_path_len"] = int(report.extras["critical_path_len"])
    if "dilation" in report.extras:
        scalars["dilation"] = float(report.extras["dilation"])
    return scalars
