"""Observability layer: spans, per-round probes, and JSONL telemetry.

The simulation stack accounts *what* happened (rounds, messages, bits —
:mod:`repro.sim.metrics`); this package adds *when* and *how it evolved*:

* :mod:`repro.obs.spans` — nestable wall-clock timers
  (``perf_counter``-based) attached to ``Metrics`` phases and to the
  batch engines' chunks and recipe phases;
* :mod:`repro.obs.probes` — a bounded columnar per-round sample series
  (informed fraction, alive count, cluster count, cumulative
  messages/bits), decimating above a cap so n = 2^18 runs stay cheap;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` collector that
  every engine threads through (``broadcast(telemetry=)``,
  ``run_replications(telemetry=)``, ``RunSpec.telemetry``);
* :mod:`repro.obs.trace` — contact-level causal tracing on the event
  tier: the columnar :class:`ContactTrace` log, critical-path
  extraction with per-node/per-edge dilation attribution, slack
  histograms and informed-front timelines (telemetry schema v2);
* :mod:`repro.obs.sink` — the JSONL export/import/validation layer;
* :mod:`repro.obs.report` — the ``repro report`` renderer (including
  ``--critical-path``).

Telemetry is strictly opt-in and zero-cost when off: the sequential
engine's commit path is byte-for-byte the pre-telemetry code (probes
ride the existing ``commit_hooks`` mechanism), and the batch runners
guard on a single ``None`` check per accounting commit.  The E18 bench
gates the overhead.
"""

from repro.obs.probes import RoundSeries
from repro.obs.report import render_critical_path, render_report
from repro.obs.sink import (
    TELEMETRY_SCHEMA_VERSION,
    read_jsonl,
    validate_records,
    write_jsonl,
)
from repro.obs.spans import SpanRecord, SpanRecorder, maybe_span
from repro.obs.telemetry import (
    SUPPORTED_SCHEMAS,
    TELEMETRY_SCHEMA_V2,
    RunTelemetry,
    Telemetry,
    TelemetryConfig,
)
from repro.obs.trace import ContactTrace, CriticalPath, path_record, trace_record

__all__ = [
    "ContactTrace",
    "CriticalPath",
    "RoundSeries",
    "RunTelemetry",
    "SUPPORTED_SCHEMAS",
    "SpanRecord",
    "SpanRecorder",
    "TELEMETRY_SCHEMA_V2",
    "TELEMETRY_SCHEMA_VERSION",
    "Telemetry",
    "TelemetryConfig",
    "maybe_span",
    "path_record",
    "read_jsonl",
    "render_critical_path",
    "render_report",
    "trace_record",
    "validate_records",
    "write_jsonl",
]
