"""The telemetry collector every engine threads through.

A :class:`Telemetry` instance collects one or more :class:`RunTelemetry`
handles — one per execution: a seeded sequential run, or one chunk of a
vector batch.  Each handle owns a :class:`~repro.obs.spans.SpanRecorder`
(wall-clock), a :class:`~repro.obs.probes.RoundSeries` (per-round
samples), a pluggable probe table, and the run's config/summary/phase
records; :meth:`Telemetry.records` flattens everything into the JSONL
schema (:mod:`repro.obs.sink`).

Wiring contract
---------------
The *sequential* engine attaches a run by registering
``run.on_round`` as a :class:`~repro.sim.engine.Simulator` commit hook
(the pre-existing mechanism task observers use — the commit path gains
no new code, which is what keeps the telemetry-off path byte-identical
to the pre-telemetry engine) and pointing ``Metrics.span_recorder`` at
``run.spans`` so phases time themselves.  Algorithms contribute probes
via ``sim.telemetry.add_probe(name, fn)`` — ``fn(sim)`` is sampled
every ``probe_every`` committed rounds (``informed`` from protocol
progress, ``clusters`` from the clustering, ``task_error`` from task
states) — and record coarse events via ``sim.emit(kind, **data)``,
which lands in ``run.events`` at the current round (callers guard it
with ``sim.records_events``, so a run that records no events builds
no payload).  *Vector* runners receive the run handle directly: their
ledger (:class:`repro.sim.batch.BatchLedger`) feeds batch-aggregate
samples, and the cluster runners add per-phase spans.

Sharded ``run_replications`` gives each shard a fresh collector
(:meth:`spawn`), then merges the shard collectors back in shard order
(:meth:`merge`) — the same deterministic, worker-count-independent
pattern as ``StreamingSummary``.  Finished handles drop their probe
closures, so collectors pickle across the process pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.probes import RoundSeries, _py
from repro.obs.spans import SpanRecorder

#: Baseline schema version: the record set every export carries.
TELEMETRY_SCHEMA_VERSION = 1

#: Schema v2 = v1 plus the causal-trace record types (``trace``/``path``,
#: :mod:`repro.obs.trace`).  An export is stamped v2 only when at least
#: one run actually recorded a trace, so tracing-off files stay
#: byte-identical to the v1 exports older tooling expects.
TELEMETRY_SCHEMA_V2 = 2

#: Every schema version :func:`repro.obs.sink.validate_records` accepts.
SUPPORTED_SCHEMAS = (TELEMETRY_SCHEMA_VERSION, TELEMETRY_SCHEMA_V2)


@dataclass(frozen=True)
class TelemetryConfig:
    """Frozen, picklable telemetry knobs — what :class:`RunSpec` carries
    so sweep jobs can build a collector inside their worker process."""

    probe_every: int = 1
    series_cap: int = 2048
    collect_events: bool = True


class RunTelemetry:
    """One execution's telemetry: spans + series + probes + records."""

    def __init__(
        self,
        run_id: int,
        config: Dict[str, Any],
        probe_every: int,
        series_cap: int,
        collect_events: bool,
    ) -> None:
        self.run_id = int(run_id)
        self.config = {k: _py(v) for k, v in dict(config).items()}
        self.probe_every = max(1, int(probe_every))
        self.collect_events = bool(collect_events)
        self.spans = SpanRecorder()
        self.series = RoundSeries(series_cap)
        self.summary: Dict[str, Any] = {}
        self.phases: Optional[Dict[str, Dict[str, Any]]] = None
        #: Coarse algorithm events (``Simulator.emit``), in emission order.
        self.events: List[Dict[str, Any]] = []
        #: Schema v2 causal-trace payloads (``None`` unless the run
        #: executed with contact tracing on — see :mod:`repro.obs.trace`).
        self.trace_record: Optional[Dict[str, Any]] = None
        self.path_record: Optional[Dict[str, Any]] = None
        #: Pluggable per-round samplers ``name -> fn(sim) -> value``;
        #: cleared when the run finishes (closures don't pickle).
        self.probes: Dict[str, Callable] = {}
        #: The latest row taken, kept in the series or not.
        self._last_row: Optional[Dict[str, Any]] = None

    def add_probe(self, name: str, fn: Callable) -> None:
        """Register (or replace) a per-round sampler."""
        self.probes[name] = fn

    def span(self, name: str):
        """Time a block into this run's span log."""
        return self.spans.span(name)

    def event(self, round_no: int, kind: str, data: Dict[str, Any]) -> None:
        """Append one coarse event record (skipped when events are off)."""
        if self.collect_events:
            data = {k: _py(v) for k, v in data.items()}
            self.events.append({"round": int(round_no), "kind": kind, "data": data})

    # -- sequential-engine hooks ---------------------------------------

    def on_round(self, sim) -> None:
        """Commit hook: sample every ``probe_every`` committed rounds.

        Under a dynamics timeline every commit's row is taken, though only
        every ``probe_every``-th enters the series: once the run ends the
        timeline has moved on to a round that never ran, so the final
        sample must reuse the last commit's row rather than recompute it.
        """
        if sim.metrics.rounds % self.probe_every == 0:
            self.sample(sim)
        elif sim.dynamics is not None:
            self._last_row = self._row(sim)

    def sample(self, sim, force: bool = False) -> None:
        """Take one sample of the engine state plus all registered probes.

        ``force`` (the final sample) keeps the row taken at the current
        round's commit when there is one.
        """
        last = self._last_row
        if force and last is not None and last["round"] == sim.metrics.rounds:
            self.series.force(**last)
            return
        row = self._last_row = self._row(sim)
        if force:
            self.series.force(**row)
        else:
            self.series.append(**row)

    def _row(self, sim) -> Dict[str, Any]:
        metrics = sim.metrics
        row = {
            "round": metrics.rounds,
            "alive": int(sim.committed_alive.sum()),
            "messages": metrics.messages,
            "bits": metrics.bits,
        }
        # Event-tier runs also carry the simulated clock; the round tier
        # (no scheduler) keeps the historical row shape.
        if sim.scheduler is not None:
            row["sim_time"] = float(sim.scheduler.sim_time)
        for name, fn in self.probes.items():
            row[name] = _py(fn(sim))
        return row


def _phases_dict(metrics) -> Dict[str, Dict[str, Any]]:
    """Serialise ``Metrics.phases`` for the run record."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, st in metrics.phases.items():
        out[name] = {
            "rounds": int(st.rounds),
            "messages": int(st.messages),
            "bits": int(st.bits),
            "max_fanin": int(st.max_fanin),
            "wall_ms": round(float(st.wall_ms), 3),
        }
    return out


class Telemetry:
    """The whole-invocation collector (see module docs)."""

    def __init__(
        self,
        *,
        probe_every: int = 1,
        series_cap: int = 2048,
        collect_events: bool = True,
    ) -> None:
        if probe_every < 1:
            raise ValueError(f"probe_every must be >= 1, got {probe_every}")
        self.probe_every = int(probe_every)
        self.series_cap = int(series_cap)
        self.collect_events = bool(collect_events)
        self.runs: List[RunTelemetry] = []
        self._next_id = 0

    @classmethod
    def from_config(cls, config: TelemetryConfig) -> "Telemetry":
        return cls(
            probe_every=config.probe_every,
            series_cap=config.series_cap,
            collect_events=config.collect_events,
        )

    def config(self) -> TelemetryConfig:
        return TelemetryConfig(
            probe_every=self.probe_every,
            series_cap=self.series_cap,
            collect_events=self.collect_events,
        )

    def spawn(self) -> "Telemetry":
        """A fresh, empty collector with the same knobs (shard-local)."""
        return Telemetry.from_config(self.config())

    # -- run lifecycle -------------------------------------------------

    def begin_run(self, config: Dict[str, Any]) -> RunTelemetry:
        """Open a run handle; engines wire it up and feed it."""
        run = RunTelemetry(
            self._next_id,
            config,
            self.probe_every,
            self.series_cap,
            self.collect_events,
        )
        self._next_id += 1
        self.runs.append(run)
        return run

    def finish_run(self, run: RunTelemetry, *, sim=None, report=None, outcome=None):
        """Seal a run: force the final sample, snapshot phases/summary,
        serialise any contact trace, and drop the probe closures."""
        if sim is not None:
            run.sample(sim, force=True)
            run.phases = _phases_dict(sim.metrics)
            run.summary.setdefault(
                "wall_ms_total", round(float(sim.metrics.total.wall_ms), 3)
            )
        if report is not None:
            run.summary.update(
                rounds=int(report.rounds),
                spread_rounds=int(report.spread_rounds),
                messages=int(report.messages),
                bits=int(report.bits),
                max_fanin=int(report.max_fanin),
                informed_fraction=float(report.informed_fraction),
                success=bool(report.success),
            )
            contacts = report.extras.get("contact_trace")
            path = report.extras.get("critical_path")
            if contacts is not None and path is not None:
                from repro.obs.trace import path_record, trace_record

                # The informed-front timeline prefers the protocol-aware
                # probe series (round, sim_time, informed) over the
                # trace's reached-node fallback.
                front = None
                if len(run.series):
                    cols = run.series.to_columns()
                    if "sim_time" in cols and "informed" in cols:
                        front = {
                            "round": list(cols["round"]),
                            "time": list(cols["sim_time"]),
                            "informed": list(cols["informed"]),
                        }
                run.trace_record = trace_record(contacts)
                run.path_record = path_record(
                    contacts, path, rounds=int(report.rounds), front=front
                )
        if outcome is not None:
            reps = int(outcome.reps)
            run.summary.update(
                reps=reps,
                rounds_mean=float(outcome.rounds.mean()),
                messages_total=int(outcome.messages.sum()),
                bits_total=int(outcome.bits.sum()),
                max_fanin=int(outcome.max_fanin.max()),
                success_rate=float(outcome.success.mean()),
            )
            sim_time = getattr(outcome, "sim_time", None)
            if sim_time is not None:
                run.summary.update(
                    sim_time_mean=float(sim_time.mean()),
                    sim_time_max=float(sim_time.max()),
                )
        run.probes = {}
        run._last_row = None
        return run

    # -- aggregation ---------------------------------------------------

    def merge(self, other: "Telemetry") -> None:
        """Absorb another collector's runs (renumbered in arrival order).

        ``run_replications`` merges shard collectors in shard order, so
        the merged run ids are worker-count independent.
        """
        for run in other.runs:
            run.run_id = self._next_id
            self._next_id += 1
            self.runs.append(run)

    # -- export --------------------------------------------------------

    def records(self) -> Iterator[Dict[str, Any]]:
        """Flatten into JSONL records (the documented schema).

        The meta header is stamped v2 only when a run carries causal
        trace records, so tracing-off exports stay byte-identical v1.
        """
        traced = any(
            run.trace_record is not None or run.path_record is not None
            for run in self.runs
        )
        yield {
            "type": "meta",
            "schema": TELEMETRY_SCHEMA_V2 if traced else TELEMETRY_SCHEMA_VERSION,
            "generator": "repro-gossip",
            "probe_every": self.probe_every,
            "series_cap": self.series_cap,
            "runs": len(self.runs),
        }
        for run in self.runs:
            yield {
                "type": "run",
                "id": run.run_id,
                "config": run.config,
                "summary": run.summary,
                "phases": run.phases,
            }
            for rec in run.spans.records:
                yield {
                    "type": "span",
                    "run": run.run_id,
                    "name": rec.name,
                    "start_ms": round(rec.start_ms, 3),
                    "wall_ms": round(rec.wall_ms, 3),
                    "depth": rec.depth,
                    "id": rec.id,
                    "parent_id": rec.parent_id,
                }
            if len(run.series):
                yield {
                    "type": "series",
                    "run": run.run_id,
                    "probe_every": run.probe_every,
                    "decimated": run.series.decimated,
                    "stride": run.series.stride,
                    "columns": run.series.to_columns(),
                }
            if run.trace_record is not None:
                yield {"run": run.run_id, **run.trace_record}
            if run.path_record is not None:
                yield {"run": run.run_id, **run.path_record}
            for event in run.events:
                yield {"type": "event", "run": run.run_id, **event}

    def write(self, path: str) -> int:
        """Export as JSONL; returns the record count."""
        from repro.obs.sink import write_jsonl

        return write_jsonl(self.records(), path)
