"""First-class algorithm *and task* registry: the library's plugin layer.

Every broadcast algorithm — the paper's Cluster1/2/3 and each baseline —
self-registers at import time with :func:`register_algorithm`, declaring
its name, category, accepted keyword knobs and a one-line doc.  The
registry is then the single source of truth for

* :func:`repro.core.broadcast.broadcast` (lookup-and-run dispatch),
* the sweep executor in :mod:`repro.analysis.runner` (names travel in
  picklable :class:`~repro.analysis.runner.RunSpec` jobs),
* scenario validation in :mod:`repro.workloads.scenarios`, and
* the CLI's ``list-algorithms`` catalogue.

Tasks (:mod:`repro.tasks`) register here too, via :func:`register_task`:
a :class:`TaskSpec` names a *workload semantics* — what per-node state the
protocol carries, what a message means, and when the execution is done
(single-rumor broadcast, k-rumor all-cast, push-sum averaging, ...).  An
algorithm opts into non-broadcast tasks by registering a **task
transport** (:func:`register_task_transport`): a runner that drives any
:class:`~repro.tasks.state.TaskState` over that algorithm's contact
pattern.  Compatibility of an ``(algorithm, task)`` pair is then a
registry question — :func:`supports_task` — answered before any network
is built.

Adding an algorithm is one decorator — no edits to the dispatch core::

    from repro.registry import register_algorithm

    @register_algorithm(
        "my-gossip", category="baseline", kwargs=("max_rounds",),
        doc="My experimental gossip variant.",
    )
    def my_gossip(sim, source=0, *, max_rounds=None):
        ...
        return report_from_sim("my-gossip", sim, informed)

Registered runners share the calling convention
``runner(sim, source, **knobs)`` with ``profile=`` passed iff the spec
declares ``uses_profile``; they record coarse progress events with
``sim.emit(kind, **data)``, which reach telemetry when it is attached
and collects events (``sim.records_events``, which guards each call so
that no other run builds a payload).
Entries with ``broadcastable=False`` (e.g. Name-Dropper, a *discovery*
protocol with its own report type) are catalogued but rejected by
``broadcast()``.

The three tables (:data:`ALGORITHMS`, :data:`TASKS`, :data:`TOPOLOGIES`)
are :class:`~repro.catalogue.Catalogue` instances.  The registry itself
imports nothing from :mod:`repro.core` or :mod:`repro.baselines`; those
modules import *it*, so there is no cycle.
:func:`ensure_builtins_loaded` imports the built-in algorithm modules on
first lookup so that ``broadcast(n, "push")`` works without the caller
importing :mod:`repro.baselines` first.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalogue import Catalogue


class DuplicateAlgorithmError(ValueError):
    """Two registrations claimed the same algorithm name."""


class UnknownAlgorithmError(ValueError):
    """Lookup of a name nobody registered."""


class DuplicateTaskError(ValueError):
    """Two registrations claimed the same task name."""


class UnknownTaskError(ValueError):
    """Lookup of a task name nobody registered."""


class IncompatibleTaskError(ValueError):
    """An (algorithm, task) pair with no registered transport."""


class DuplicateTopologyError(ValueError):
    """Two registrations claimed the same topology name."""


class UnknownTopologyError(ValueError):
    """Lookup of a topology name nobody registered."""


class IncompatibleTopologyError(ValueError):
    """An (algorithm, topology) pair the algorithm declared unsupported."""


#: The implicit default task: single-rumor broadcast, the paper's setting.
BROADCAST_TASK = "broadcast"


def check_knobs(owner: str, given: Optional[Dict[str, Any]], declared) -> None:
    """Reject keyword knobs ``owner`` (an algorithm, task or topology)
    does not declare, with one message for all three."""
    unknown = set(given or {}) - set(declared)
    if unknown:
        raise ValueError(
            f"{owner} does not accept {sorted(unknown)}; "
            f"declared knobs are {sorted(declared)}"
        )


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm: identity, entry point, and calling shape.

    Parameters
    ----------
    name:
        Public name (what ``broadcast()``, sweeps and the CLI use).
    runner:
        The entry-point callable.
    category:
        ``"core"`` (the paper's algorithms), ``"baseline"`` (prior work),
        or ``"discovery"`` (resource-discovery protocols that do not fit
        the broadcast report shape).
    uses_profile:
        Whether the runner takes a ``profile=`` constant-resolution knob.
    broadcastable:
        Whether :func:`repro.core.broadcast.broadcast` may dispatch to it.
    kwargs:
        Names of the extra keyword knobs the runner accepts (documented
        surface for scenario validation and ``list-algorithms``).
    doc:
        One-line description for catalogues.
    batch_runner:
        Optional vectorised replication entry point (see
        :mod:`repro.sim.batch`): ``fn(n, reps, rng, *, message_bits,
        source, **knobs) -> BatchOutcome`` advancing R replications in
        ``(R, n)`` arrays.  ``None`` (most algorithms) means replication
        suites fall back to the sequential reset engine.  The
        runner opts into bound contact graphs, the batched clock overlay
        and telemetry by accepting ``graph=``, ``overlay=`` and
        ``telemetry=``; it receives ``profile=`` iff ``uses_profile``.
    task_transport:
        Optional task runner ``fn(sim, state, *, [profile=...,] **knobs)
        -> AlgorithmReport`` driving an arbitrary
        :class:`~repro.tasks.state.TaskState` over this algorithm's
        contact pattern.  ``None`` means the algorithm only supports the
        default ``"broadcast"`` task.
    task_batch_runners:
        Vectorised replication entry points for non-broadcast tasks,
        keyed by task name (``batch_runner`` covers ``"broadcast"``).
    complete_graph_only:
        Whether the algorithm is only meaningful on the complete contact
        graph (:mod:`repro.sim.topology`).  Most algorithms run on any
        topology — their *guarantees* just degrade — but some (e.g. the
        median-counter stopping rule, whose phase thresholds are derived
        from uniform global sampling) are wrong, not merely slower, on a
        restricted graph, and declare it here so ``broadcast()`` and
        scenario validation refuse the pair up front.
    """

    name: str
    runner: Callable[..., Any]
    category: str = "baseline"
    uses_profile: bool = False
    broadcastable: bool = True
    kwargs: Tuple[str, ...] = ()
    doc: str = ""
    batch_runner: Optional[Callable[..., Any]] = None
    task_transport: Optional[Callable[..., Any]] = None
    task_batch_runners: Tuple[Tuple[str, Callable[..., Any]], ...] = ()
    complete_graph_only: bool = False

    def run(self, sim, source, profile, **algorithm_kwargs):
        """Invoke the runner with the uniform dispatch convention (the
        run-config check has already refused non-broadcastable specs)."""
        call: Dict[str, Any] = dict(algorithm_kwargs)
        if self.uses_profile:
            call["profile"] = profile
        return self.runner(sim, source, **call)

    def supports_task(self, task: str) -> bool:
        """Whether this algorithm can run workload ``task``.

        Every broadcastable algorithm supports the implicit
        ``"broadcast"`` task; any other task needs a registered
        transport.
        """
        if task == BROADCAST_TASK:
            return self.broadcastable
        return self.task_transport is not None

    def run_task(self, sim, state, profile, **algorithm_kwargs):
        """Drive a non-broadcast task state through this algorithm's
        transport (same keyword convention as :meth:`run`)."""
        call: Dict[str, Any] = dict(algorithm_kwargs)
        if self.uses_profile:
            call["profile"] = profile
        report = self.task_transport(sim, state, **call)
        # Transports are shared between algorithms (e.g. one cluster
        # transport behind Cluster1 and Cluster2); the registry knows the
        # public name, so it stamps the report.
        report.algorithm = self.name
        return report

    def batch_runner_for(self, task: str) -> Optional[Callable[..., Any]]:
        """The vectorised replication runner for ``task`` (None if none)."""
        if task == BROADCAST_TASK:
            return self.batch_runner
        return dict(self.task_batch_runners).get(task)

    def supports_topology(self, topology) -> bool:
        """Whether this algorithm may run on contact graph ``topology``
        (a :class:`repro.sim.topology.Topology` spec)."""
        return topology.complete or not self.complete_graph_only


#: Modules whose import registers the built-in algorithms.
_BUILTIN_MODULES: Tuple[str, ...] = (
    "repro.core.cluster1",
    "repro.core.cluster2",
    "repro.core.cluster_push_pull",
    "repro.baselines.uniform_push",
    "repro.baselines.uniform_pull",
    "repro.baselines.push_pull",
    "repro.baselines.median_counter",
    "repro.baselines.avin_elsasser",
    "repro.baselines.name_dropper",
    # The built-in task catalogue (k-rumor, push-sum, min/max) — loaded
    # with the algorithms so that (algorithm, task) compatibility is
    # resolvable as soon as anyone touches the registry.
    "repro.tasks.builtin",
    # The built-in contact-graph catalogue (complete, ring, torus,
    # random-regular, gnp) — its import self-registers the topologies.
    "repro.sim.topology",
)

_builtins_loaded = False


def ensure_builtins_loaded() -> None:
    """Import the built-in algorithm modules once (idempotent).

    Deferred to first lookup so that importing :mod:`repro.registry` from
    an algorithm module (to use the decorator) never re-enters the
    algorithm packages mid-import.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    # Only marked loaded on full success: a failed import propagates and
    # the next lookup retries instead of serving a silently partial
    # catalogue.  (Re-entrant calls during the loop are safe — modules
    # already in progress come back from sys.modules.)
    _builtins_loaded = True


def _defined_at(fn: Any) -> Any:
    """``(module, qualname)`` of a runner or factory, which a module reload
    re-registers unchanged; anything without both never matches."""
    try:
        return fn.__module__, fn.__qualname__
    except AttributeError:
        return object()


#: The algorithm catalogue.  Re-registering the *same* entry point (same
#: module and qualname — what ``importlib.reload`` produces) replaces the
#: stale spec so interactive iteration works; a different function
#: claiming a taken name is a conflict.
ALGORITHMS = Catalogue(
    "algorithm",
    unknown=UnknownAlgorithmError,
    duplicate=DuplicateAlgorithmError,
    identity=lambda spec: _defined_at(spec.runner),
    load=ensure_builtins_loaded,
)
#: Register a fully built spec (the decorator funnels through here).
register_spec = ALGORITHMS.register
#: Remove an algorithm registration (tests and interactive use).
unregister_algorithm = ALGORITHMS.unregister
#: Look an algorithm up by name; a miss raises
#: :class:`UnknownAlgorithmError` (a ``ValueError``) listing the names.
get_algorithm = ALGORITHMS.lookup


def register_algorithm(
    name: str,
    *,
    category: str = "baseline",
    uses_profile: bool = False,
    broadcastable: bool = True,
    kwargs: Sequence[str] = (),
    doc: Optional[str] = None,
    complete_graph_only: bool = False,
) -> Callable[[Callable], Callable]:
    """Class the decorated entry point as algorithm ``name``.

    Returns the function unchanged, so modules keep their plain callables
    for direct use.  ``doc`` defaults to the first line of the runner's
    docstring.
    """

    def decorate(fn: Callable) -> Callable:
        summary = doc
        if summary is None:
            summary = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""
        register_spec(
            AlgorithmSpec(
                name=name,
                runner=fn,
                category=category,
                uses_profile=uses_profile,
                broadcastable=broadcastable,
                kwargs=tuple(kwargs),
                doc=summary,
                complete_graph_only=complete_graph_only,
            )
        )
        return fn

    return decorate


def register_batch_runner(
    name: str, task: str = BROADCAST_TASK
) -> Callable[[Callable], Callable]:
    """Attach a vectorised replication runner to algorithm ``name``.

    Used as a decorator *after* the algorithm itself is registered (the
    two entry points usually live in the same module)::

        @register_batch_runner("push-pull")
        def batched_push_pull(n, reps, rng, *, message_bits=256, source=0,
                              max_rounds=None) -> BatchOutcome: ...

    ``task`` selects which workload the runner vectorises: the default is
    the implicit broadcast task; ``task="push-sum"`` (for example) makes
    the runner the ``vector``-engine entry point for
    ``run_replications(..., task="push-sum")`` on this algorithm.

    The runner's signature is its capability list: it runs on restricted
    topologies, under ``scheduler="event"`` and with telemetry by
    accepting ``graph=``, ``overlay=`` and ``telemetry=``
    (:func:`repro.core.broadcast.vector_unavailable` reads them, through
    ``functools.wraps`` wrappers too).  Nothing else is read off a
    runner: a task's chunk weight, for batch state wider than ``(R, n)``,
    is its state class's
    :meth:`~repro.tasks.state.TaskState.elements_per_node`.

    Returns the function unchanged.
    """

    def decorate(fn: Callable) -> Callable:
        spec = ALGORITHMS.get(name)
        if spec is None:
            raise UnknownAlgorithmError(
                f"cannot attach a batch runner to unregistered algorithm {name!r}"
            )
        if task == BROADCAST_TASK:
            ALGORITHMS[name] = dataclasses.replace(spec, batch_runner=fn)
        else:
            runners = dict(spec.task_batch_runners)
            runners[task] = fn
            ALGORITHMS[name] = dataclasses.replace(
                spec, task_batch_runners=tuple(sorted(runners.items()))
            )
        return fn

    return decorate


def register_task_transport(name: str) -> Callable[[Callable], Callable]:
    """Attach a task transport to algorithm ``name`` (decorator).

    The transport is what makes the algorithm compatible with every
    non-broadcast task: it receives a built
    :class:`~repro.tasks.state.TaskState` and drives it over the
    algorithm's own contact pattern (uniform random calls for the gossip
    baselines, the clustering structure for the paper's algorithms)::

        @register_task_transport("push-pull")
        def push_pull_transport(sim, state, *, max_rounds=None):
            return run_uniform_transport(sim, state, mode="push-pull", ...)

    Returns the function unchanged.
    """

    def decorate(fn: Callable) -> Callable:
        spec = ALGORITHMS.get(name)
        if spec is None:
            raise UnknownAlgorithmError(
                f"cannot attach a task transport to unregistered algorithm {name!r}"
            )
        ALGORITHMS[name] = dataclasses.replace(spec, task_transport=fn)
        return fn

    return decorate


def algorithm_specs(*, broadcastable_only: bool = False) -> List[AlgorithmSpec]:
    """All registered specs, sorted by name."""
    specs = ALGORITHMS.entries()
    return [s for s in specs if s.broadcastable or not broadcastable_only]


def algorithm_names(*, broadcastable_only: bool = True) -> List[str]:
    """Registered names; by default only those ``broadcast()`` accepts."""
    return [s.name for s in algorithm_specs(broadcastable_only=broadcastable_only)]


# ----------------------------------------------------------------------
# Task registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSpec:
    """One registered workload semantics.

    Parameters
    ----------
    name:
        Public task name (what ``broadcast(task=...)``, scenarios and the
        CLI use).
    factory:
        ``fn(net, rng, *, message_bits, source, **knobs) -> TaskState`` —
        builds the initial per-node state on an already-built (and
        already-failed, if the run has pre-run failures) network.  The
        default ``"broadcast"`` task has no factory: it is the legacy
        single-rumor path, dispatched by :func:`repro.core.broadcast`
        itself.  A task that runs on the vector engine has a
        :class:`~repro.tasks.state.TaskState` class here, whose
        ``elements_per_node`` sizes the vector chunks.
    category:
        ``"dissemination"`` (completion = everyone holds some content) or
        ``"aggregation"`` (completion = everyone's estimate of a global
        function is good enough).
    kwargs:
        Names of the extra keyword knobs the factory accepts (documented
        surface for scenario validation and ``list-tasks``).
    doc:
        One-line description for catalogues.
    """

    name: str
    factory: Optional[Callable[..., Any]] = None
    category: str = "dissemination"
    kwargs: Tuple[str, ...] = ()
    doc: str = ""

    def validate_kwargs(self, task_kwargs: Optional[Dict[str, Any]]) -> None:
        """Reject knobs the task does not declare (uniform error for every
        execution engine, including the batched vector path)."""
        check_knobs(f"task {self.name!r}", task_kwargs, self.kwargs)

    def build(self, net, rng, *, message_bits: int, source, **task_kwargs):
        """Construct the initial :class:`~repro.tasks.state.TaskState`."""
        if self.factory is None:
            raise ValueError(
                f"task {self.name!r} is the implicit legacy path and has no "
                "state factory; repro.core.broadcast dispatches it directly"
            )
        self.validate_kwargs(task_kwargs)
        return self.factory(
            net, rng, message_bits=message_bits, source=source, **task_kwargs
        )


#: The task catalogue.  The implicit single-rumor task is present from
#: import, so the catalogue is never empty and ``get_task("broadcast")``
#: always works; it cannot be unregistered.  Reloads replace, as for
#: algorithms.
TASKS = Catalogue(
    "task",
    {
        BROADCAST_TASK: TaskSpec(
            name=BROADCAST_TASK,
            doc="Single-rumor broadcast — the paper's setting (the default task).",
        )
    },
    unknown=UnknownTaskError,
    duplicate=DuplicateTaskError,
    identity=lambda spec: _defined_at(spec.factory),
    fixed=(BROADCAST_TASK,),
    load=ensure_builtins_loaded,
)
#: Register a task spec (extension point for third-party tasks).
register_task = TASKS.register
#: Remove a task registration; the broadcast task raises ``ValueError``.
unregister_task = TASKS.unregister
#: Look a task up by name (:class:`UnknownTaskError` on a miss).
get_task = TASKS.lookup
#: All registered task specs and names, sorted by name.
task_specs = TASKS.entries
task_names = TASKS.names


def supports_task(algorithm: str, task: str) -> bool:
    """Whether the ``(algorithm, task)`` pair has an execution path.

    Unknown algorithm or task names raise (they are lookup errors, not
    incompatibilities).
    """
    spec = get_algorithm(algorithm)
    get_task(task)
    return spec.supports_task(task)


def compatible_algorithms(task: str) -> List[str]:
    """Names of the algorithms that can run workload ``task``."""
    get_task(task)
    return [s.name for s in algorithm_specs() if s.supports_task(task)]


# ----------------------------------------------------------------------
# Topology registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TopologySpec:
    """One registered contact topology (:mod:`repro.sim.topology`).

    Parameters
    ----------
    name:
        Public topology name (what ``broadcast(topology=...)``,
        scenarios and the CLI use).
    factory:
        ``fn(**knobs) -> Topology`` — builds the frozen topology spec
        (e.g. the :class:`~repro.sim.topology.Ring` dataclass itself).
    kwargs:
        Names of the keyword knobs the factory accepts (documented
        surface for ``--topology-arg`` validation and
        ``list-topologies``).
    doc:
        One-line description for catalogues.
    complete:
        Whether this is the complete graph — the default topology, the
        one every algorithm supports and the one the fingerprint corpus
        pins bit-identical.
    """

    name: str
    factory: Callable[..., Any]
    kwargs: Tuple[str, ...] = ()
    doc: str = ""
    complete: bool = False

    def build(self, **topology_kwargs: Any):
        """Construct the frozen topology spec, validating the knobs."""
        check_knobs(f"topology {self.name!r}", topology_kwargs, self.kwargs)
        return self.factory(**topology_kwargs)


#: The topology catalogue.  The complete graph is the engine's default
#: and cannot be unregistered.  Reloads replace, as for algorithms.
TOPOLOGIES = Catalogue(
    "topology",
    unknown=UnknownTopologyError,
    duplicate=DuplicateTopologyError,
    identity=lambda spec: _defined_at(spec.factory),
    fixed=("complete",),
    load=ensure_builtins_loaded,
)
#: Register a topology spec (extension point for third-party graphs).
register_topology = TOPOLOGIES.register
#: Remove a topology registration; the complete graph raises ``ValueError``.
unregister_topology = TOPOLOGIES.unregister
#: Look a topology up by name (:class:`UnknownTopologyError` on a miss).
get_topology_spec = TOPOLOGIES.lookup
#: All registered topology specs and names, sorted by name.
topology_specs = TOPOLOGIES.entries
topology_names = TOPOLOGIES.names


def make_topology(name: str, **topology_kwargs: Any):
    """Build a frozen :class:`~repro.sim.topology.Topology` by name."""
    return get_topology_spec(name).build(**topology_kwargs)


def supports_topology(algorithm: str, topology) -> bool:
    """Whether ``algorithm`` may run on ``topology`` (a spec instance or
    a registered name).  Unknown names raise — they are lookup errors,
    not incompatibilities."""
    spec = get_algorithm(algorithm)
    if isinstance(topology, str):
        topology = make_topology(topology)
    return spec.supports_topology(topology)


def compatible_topologies(algorithm: str) -> List[str]:
    """Names of the registered topologies ``algorithm`` may run on."""
    spec = get_algorithm(algorithm)
    return [t.name for t in topology_specs() if spec.supports_topology(t)]
