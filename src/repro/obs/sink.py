"""JSONL telemetry export, import, and schema validation.

One telemetry file is a sequence of JSON objects, one per line, in a
fixed record order: a ``meta`` header, then per run (ascending ``id``) a
``run`` record followed by its ``span``, ``series``, ``trace``/``path``
(schema v2 only) and ``event`` records.  The schema (versions
:data:`SUPPORTED_SCHEMAS`, also documented in the README
"Observability" / "Tracing & critical paths" sections):

``meta``
    ``schema`` (int), ``generator`` (str), ``probe_every`` (int),
    ``series_cap`` (int), ``runs`` (int).
``run``
    ``id`` (int), ``config`` (object: engine/algorithm/n/seed/...),
    ``summary`` (object: rounds/messages/bits/success... or the vector
    chunk aggregates), ``phases`` (object name → {rounds, messages,
    bits, max_fanin, wall_ms}, or null for vector chunks).
``span``
    ``run`` (int), ``name`` (str), ``start_ms``/``wall_ms`` (float,
    wall_ms >= 0), ``depth`` (int >= 0); optionally ``id`` (int >= 0)
    and ``parent_id`` (int or null) so nested span trees survive the
    round-trip (absent in pre-span-tree files, which stay valid).
``series``
    ``run`` (int), ``probe_every`` (int), ``decimated`` (bool),
    ``stride`` (int), ``columns`` (object name → equal-length arrays,
    always including ``round``).
``trace`` (v2)
    ``run`` (int), ``contacts`` (int), ``sim_time`` (number),
    ``subsampled`` (bool), ``columns`` (object of equal-length arrays:
    ``src``/``dst``/``start``/``complete``/``round``/``kind``/
    ``arrived``) — the contact-level causal log
    (:mod:`repro.obs.trace`).
``path`` (v2)
    ``run`` (int), ``length`` (int), ``sim_time`` (number), ``hops``
    (object of equal-length arrays), ``node_attribution`` /
    ``edge_attribution`` (objects: id → dilation share),
    ``slack`` (object: edges/counts/mean/max), ``front`` (object:
    round/time/informed), optionally ``rounds``/``dilation``.
``event``
    ``run`` (int), ``round`` (int), ``kind`` (str), ``data`` (object).

A v1 file must not contain ``trace``/``path`` records (that is the
mixed-version shape :func:`validate_records` rejects), and a file may
only carry one meta header.  :func:`validate_records` checks all of
this and is what the CI telemetry smoke legs (and ``repro report``) run
against a file before trusting it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.obs.telemetry import (
    SUPPORTED_SCHEMAS,
    TELEMETRY_SCHEMA_V2,
    TELEMETRY_SCHEMA_VERSION,
)

_RECORD_TYPES = ("meta", "run", "span", "series", "trace", "path", "event")

#: Record types only the v2 schema admits.
_V2_TYPES = ("trace", "path")

#: Required equal-length columns of a ``trace`` record.
_TRACE_COLUMNS = ("src", "dst", "start", "complete", "round", "kind", "arrived")


def write_jsonl(records, path: str) -> int:
    """Write records (dicts) as JSONL; returns how many were written."""
    count = 0
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, default=str))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL telemetry file back into record dicts."""
    records = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
    return records


def validate_records(records: List[Dict[str, Any]]) -> List[str]:
    """Schema-check records; returns problem strings (empty = valid)."""
    problems: List[str] = []
    if not records:
        return ["empty telemetry file (no records)"]
    # JSONL lines parse to any JSON value; a bare list/number/string is a
    # malformed file, not a crash (rec.get would raise AttributeError).
    non_dicts = [
        f"record {i}: not an object (got {type(rec).__name__})"
        for i, rec in enumerate(records)
        if not isinstance(rec, dict)
    ]
    if non_dicts:
        return non_dicts
    head = records[0]
    schema = head.get("schema")
    if head.get("type") != "meta":
        problems.append(f"first record must be 'meta', got {head.get('type')!r}")
    elif schema not in SUPPORTED_SCHEMAS:
        problems.append(
            f"unsupported schema {schema!r} "
            f"(supported: {', '.join(str(s) for s in SUPPORTED_SCHEMAS)})"
        )
    run_ids = set()
    for i, rec in enumerate(records):
        kind = rec.get("type")
        where = f"record {i}"
        if kind not in _RECORD_TYPES:
            problems.append(f"{where}: unknown type {kind!r}")
            continue
        if kind == "meta" and i > 0:
            # One header per file; a second meta with a different schema
            # is the concatenated mixed-version shape.
            if rec.get("schema") != schema:
                problems.append(
                    f"{where}: mixed-version file (meta schema "
                    f"{rec.get('schema')!r} after schema {schema!r})"
                )
            else:
                problems.append(f"{where}: duplicate meta header")
        if kind in _V2_TYPES and schema == TELEMETRY_SCHEMA_VERSION:
            problems.append(
                f"{where}: {kind} record in a schema-{TELEMETRY_SCHEMA_VERSION} "
                f"file (trace records need schema {TELEMETRY_SCHEMA_V2})"
            )
        if kind == "run":
            if not isinstance(rec.get("id"), int):
                problems.append(f"{where}: run record without integer 'id'")
                continue
            run_ids.add(rec["id"])
            if not isinstance(rec.get("config"), dict):
                problems.append(f"{where}: run {rec['id']} has no config object")
            if not isinstance(rec.get("summary"), dict):
                problems.append(f"{where}: run {rec['id']} has no summary object")
        elif kind in ("span", "series", "trace", "path", "event"):
            if rec.get("run") not in run_ids:
                problems.append(
                    f"{where}: {kind} references unknown run {rec.get('run')!r}"
                )
        if kind == "span":
            if not isinstance(rec.get("name"), str):
                problems.append(f"{where}: span without a name")
            wall = rec.get("wall_ms")
            if not isinstance(wall, (int, float)) or wall < 0:
                problems.append(f"{where}: span wall_ms must be >= 0, got {wall!r}")
            depth = rec.get("depth")
            if not isinstance(depth, int) or depth < 0:
                problems.append(f"{where}: span depth must be >= 0, got {depth!r}")
            # id/parent_id are optional (pre-span-tree files lack them)
            # but must be well-typed when present.
            if "id" in rec and (not isinstance(rec["id"], int) or rec["id"] < 0):
                problems.append(f"{where}: span id must be an int >= 0")
            parent = rec.get("parent_id")
            if parent is not None and not isinstance(parent, int):
                problems.append(f"{where}: span parent_id must be an int or null")
        elif kind == "trace":
            if not isinstance(rec.get("contacts"), int) or rec["contacts"] < 0:
                problems.append(f"{where}: trace needs an integer contact count")
            if not isinstance(rec.get("sim_time"), (int, float)):
                problems.append(f"{where}: trace needs a numeric sim_time")
            columns = rec.get("columns")
            if not isinstance(columns, dict) or not all(
                name in columns for name in _TRACE_COLUMNS
            ):
                problems.append(
                    f"{where}: trace columns must include "
                    f"{', '.join(_TRACE_COLUMNS)}"
                )
            else:
                lengths = {name: len(col) for name, col in columns.items()}
                if len(set(lengths.values())) > 1:
                    problems.append(f"{where}: ragged trace columns {lengths}")
        elif kind == "path":
            length = rec.get("length")
            if not isinstance(length, int) or length < 0:
                problems.append(f"{where}: path length must be an int >= 0")
            if not isinstance(rec.get("sim_time"), (int, float)):
                problems.append(f"{where}: path needs a numeric sim_time")
            hops = rec.get("hops")
            if not isinstance(hops, dict):
                problems.append(f"{where}: path needs a hops object")
            else:
                lengths = {name: len(col) for name, col in hops.items()}
                if len(set(lengths.values())) > 1:
                    problems.append(f"{where}: ragged path hop columns {lengths}")
                elif isinstance(length, int) and lengths and set(lengths.values()) != {length}:
                    problems.append(
                        f"{where}: path length {length} does not match its "
                        f"hop columns {lengths}"
                    )
            for table in ("node_attribution", "edge_attribution"):
                if not isinstance(rec.get(table), dict):
                    problems.append(f"{where}: path needs a {table} object")
        elif kind == "series":
            columns = rec.get("columns")
            if not isinstance(columns, dict) or "round" not in columns:
                problems.append(f"{where}: series needs a 'round' column")
            else:
                lengths = {name: len(col) for name, col in columns.items()}
                if len(set(lengths.values())) > 1:
                    problems.append(f"{where}: ragged series columns {lengths}")
        elif kind == "event":
            if not isinstance(rec.get("kind"), str):
                problems.append(f"{where}: event without a kind")
            if not isinstance(rec.get("round"), int):
                problems.append(f"{where}: event without an integer round")
    if head.get("type") == "meta" and isinstance(head.get("runs"), int):
        if head["runs"] != len(run_ids):
            problems.append(
                f"meta announces {head['runs']} runs, file has {len(run_ids)}"
            )
    return problems

