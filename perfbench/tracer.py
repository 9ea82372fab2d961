"""Layer tracing for the traced benchmark run, from outside the program.

:class:`Tracer` wraps the public functions and methods at each layer
boundary of the simulator and records one span per call: name, start,
end and the enclosing span (the span that caused it).  Spans stay in
memory and are written out once, when the run ends.  A span's self time
is its duration minus the durations of its direct children, so, for
example, ``engine.commit`` excludes the ``schedule.on_commit`` it calls.

Functions in ``repro.core.primitives`` are imported by name into the
algorithm modules, so the sequential Cluster2 primitives are covered by
the phase spans (``Metrics.phase``, and the telemetry span recorder on
the vector tier) rather than by their own.  Nothing here is imported by
an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Algorithm phases, as the Cluster2 drivers name their spans; the
#: sequential tier's ``merge-all`` is the same phase as ``merge``.
PHASES = ("grow", "square", "merge", "bounded-push", "pull", "share")
_PHASE_ALIASES = {"merge-all": "merge"}

_CLUSTER_BATCH_OPS = (
    "grow_push_round",
    "cluster_push",
    "cluster_resize",
    "cluster_size",
    "cluster_merge",
    "cluster_activate",
    "cluster_share",
    "unclustered_pull_round",
)

#: Every span name the tracer can record, layer first.  ``runner.vector``
#: is a registered batch runner's own body (its per-round glue between
#: the primitives above), and ``broadcast.run_replications`` is the
#: root span of every benchmark call.
SPANS = (
    *(f"batch_cluster.{op}" for op in _CLUSTER_BATCH_OPS),
    *(f"phase.{p}" for p in PHASES),
    "batch.random_targets_batch",
    "batch.per_rep_max_fanin",
    "schedule.full_round",
    "schedule.fold",
    "schedule.make_batch_overlay",
    "schedule.on_commit",
    "topology.bind",
    "topology.sample_contacts_batch",
    "topology.complete_full",
    "topology.delays",
    "engine.push",
    "engine.pull",
    "engine.commit",
    "network.reset",
    "stats.observe",
    "broadcast.run_replications",
    "runner.vector",
)

#: Work counters, summed at the same boundaries as the spans.
COUNTS = (
    "schedule.full_round.contacts",
    "topology.bind.edges",
    "topology.sample_contacts_batch.draws",
    "engine.commit.contacts",
)

#: Algorithms whose registered vector runners get a ``runner.vector`` span.
_RUNNERS = ("push-pull", "cluster2")


def phase_layer(name: str) -> Optional[str]:
    """The ``phase.*`` span for a telemetry span name, or ``None``."""
    if name.startswith("phase:"):
        name = name[len("phase:") :]
    name = _PHASE_ALIASES.get(name, name)
    return f"phase.{name}" if name in PHASES else None


def _srcs(args: tuple, kwargs: dict):
    return kwargs["srcs"] if "srcs" in kwargs else args[1]


class Tracer:
    """Records spans and counts while installed; :meth:`uninstall`
    restores every patched attribute."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]`` per span, in opening order.
        self.spans: List[list] = []
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._open: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter()

    def clear(self) -> None:
        """Drop what was recorded so far (between warm-up and timing)."""
        self.spans.clear()
        self.counts = dict.fromkeys(COUNTS, 0)

    def traced(
        self,
        fn: Callable,
        name: str,
        count: Optional[Tuple[str, Callable]] = None,
    ) -> Callable:
        """``fn`` inside a span; ``count = (counter, f(args, kwargs,
        result) -> int)`` adds to a work counter after each call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if count is not None:
                tracer.counts[count[0]] += int(count[1](args, kwargs, result))
            return result

        return wrapper

    def _phase_cm(self, original: Callable) -> Callable:
        """Wrap a ``(owner, name)`` context-manager method so that the
        algorithm phases it opens become ``phase.*`` spans."""
        tracer = self

        @contextmanager
        def wrapper(owner, name, *args, **kwargs):
            layer = phase_layer(name)
            with original(owner, name, *args, **kwargs) as value:
                if layer is None:
                    yield value
                    return
                tracer.begin(layer)
                try:
                    yield value
                finally:
                    tracer.end()

        return functools.wraps(original)(wrapper)

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append(functools.partial(setattr, owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _method(self, cls, attr: str, name: str, count=None) -> None:
        self._patch(cls, attr, self.traced(cls.__dict__[attr], name, count))

    def _function(self, fn: Callable, name: str) -> None:
        """Wrap a module-level function in every ``repro`` module that
        holds it, including the modules that imported it by name."""
        wrapper = self.traced(fn, name)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                vars(module).get(fn.__name__) is fn
            ):
                self._patch(module, fn.__name__, wrapper)

    def _bound_delay(self, cls, attr: str, method: str, name: str) -> None:
        """Wrap ``method`` on each object that ``cls.attr`` (a delay
        model's bind) returns; the bind itself records no span."""
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def bind(*args, **kwargs):
            bound = original(*args, **kwargs)
            setattr(bound, method, tracer.traced(getattr(bound, method), name))
            return bound

        self._patch(cls, attr, bind)

    def install(self) -> "Tracer":
        import repro.sim.batch as batch
        import repro.sim.schedule as schedule
        from repro.analysis.stats import ReplicationSummary
        from repro.obs.spans import SpanRecorder
        from repro.registry import get_algorithm, register_batch_runner
        from repro.sim.batch_cluster import ClusterBatch
        from repro.sim.engine import Round
        from repro.sim.metrics import Metrics
        from repro.sim.network import Network
        from repro.sim.topology import ContactGraph, NodeSlowdownDelay, RandomRegular

        for op in _CLUSTER_BATCH_OPS:
            self._method(ClusterBatch, op, f"batch_cluster.{op}")
        self._patch(SpanRecorder, "span", self._phase_cm(SpanRecorder.__dict__["span"]))
        self._patch(Metrics, "phase", self._phase_cm(Metrics.__dict__["phase"]))
        self._function(batch.random_targets_batch, "batch.random_targets_batch")
        self._function(batch.per_rep_max_fanin, "batch.per_rep_max_fanin")
        self._method(
            schedule.BatchClockOverlay,
            "full_round",
            "schedule.full_round",
            ("schedule.full_round.contacts", lambda a, k, r: a[2].size),
        )
        self._method(schedule.BatchClockOverlay, "fold", "schedule.fold")
        self._function(schedule.make_batch_overlay, "schedule.make_batch_overlay")
        self._method(schedule.EventScheduler, "on_commit", "schedule.on_commit")
        self._method(
            RandomRegular,
            "bind",
            "topology.bind",
            ("topology.bind.edges", lambda a, k, r: r.edge_count),
        )
        self._method(
            ContactGraph,
            "sample_contacts_batch",
            "topology.sample_contacts_batch",
            ("topology.sample_contacts_batch.draws", lambda a, k, r: r.size),
        )
        self._bound_delay(
            NodeSlowdownDelay, "bind_batch", "complete_full", "topology.complete_full"
        )
        self._bound_delay(NodeSlowdownDelay, "bind", "delays", "topology.delays")
        contacts = ("engine.commit.contacts", lambda a, k, r: len(_srcs(a, k)))
        self._method(Round, "push", "engine.push", contacts)
        self._method(Round, "pull", "engine.pull", contacts)
        self._method(Round, "commit", "engine.commit")
        self._method(Network, "reset", "network.reset")
        self._method(ReplicationSummary, "observe", "stats.observe")
        broadcast = importlib.import_module("repro.core.broadcast")
        self._function(broadcast.run_replications, "broadcast.run_replications")
        for algorithm in _RUNNERS:
            runner = get_algorithm(algorithm).batch_runner
            register_batch_runner(algorithm)(self.traced(runner, "runner.vector"))
            self._undo.append(functools.partial(register_batch_runner(algorithm), runner))
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over the recorded spans."""
        children = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: Dict[str, Tuple[int, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - children[i])
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines; ``call`` is the root span's id,
        shared by every span of one benchmark call."""
        if not self.spans:
            return
        epoch = self.spans[0][1]
        roots: List[int] = []
        with open(path, "w") as out:
            for i, (name, start, end, parent) in enumerate(self.spans):
                roots.append(i if parent < 0 else roots[parent])
                record = {
                    "id": i,
                    "parent": parent if parent >= 0 else None,
                    "call": roots[i],
                    "name": name,
                    "start_ms": round((start - epoch) * 1e3, 4),
                    "wall_ms": round((end - start) * 1e3, 4),
                }
                out.write(json.dumps(record) + "\n")
