"""Render a telemetry JSONL file for terminals (``repro report``).

Input is the record list of :func:`repro.obs.sink.read_jsonl`; output is
a phase × wall-clock table (aggregated over every run, plus per-run
detail for the first few) and a per-run round-series summary thinned to
a displayable row count.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Shown in the ``wall ms`` column when no span timed the phase.
EM_DASH = "—"

#: Runs given full per-run detail before the renderer switches to a
#: one-line-per-run roll-up.
_DETAIL_RUNS = 4


def _fmt(value: Any) -> str:
    if value is None:
        return EM_DASH
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _series_table(columns: Dict[str, List[Any]], max_rows: int) -> List[str]:
    names = ["round"] + [n for n in columns if n != "round"]
    total = len(columns["round"])
    if total <= max_rows:
        picks = list(range(total))
    else:
        # Evenly spaced display rows, always keeping first and last.
        picks = sorted({round(i * (total - 1) / (max_rows - 1)) for i in range(max_rows)})
    rows = [[_fmt(columns[n][i]) for n in names] for i in picks]
    widths = [
        max(len(name), *(len(row[j]) for row in rows)) for j, name in enumerate(names)
    ]
    lines = ["  " + "  ".join(name.rjust(widths[j]) for j, name in enumerate(names))]
    for row in rows:
        lines.append("  " + "  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)))
    if total > max_rows:
        lines.append(f"  ({total} samples, {len(picks)} shown)")
    return lines


def _phase_lines(phases: Dict[str, Dict[str, Any]], indent: str = "  ") -> List[str]:
    header = (
        f"{'phase':<22}{'rounds':>7}{'msgs':>10}{'bits':>13}{'wall ms':>10}"
    )
    lines = [indent + header, indent + "-" * len(header)]
    for name, st in phases.items():
        wall = st.get("wall_ms", 0.0)
        wall_s = f"{wall:.1f}" if wall else EM_DASH
        lines.append(
            indent
            + f"{name:<22}{st['rounds']:>7}{st['messages']:>10}"
            + f"{st['bits']:>13}{wall_s:>10}"
        )
    return lines


def _span_lines(spans: List[Dict[str, Any]], indent: str = "  ") -> List[str]:
    if any(isinstance(rec.get("id"), int) for rec in spans):
        return _span_tree_lines(spans, indent)
    # Flat name aggregation: the fallback for pre-span-tree files whose
    # span records carry no id/parent_id.
    totals: Dict[str, List[float]] = {}
    for rec in spans:
        entry = totals.setdefault(rec["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += rec["wall_ms"]
    header = f"{'span':<28}{'count':>7}{'wall ms':>10}"
    lines = [indent + header, indent + "-" * len(header)]
    for name, (count, wall) in totals.items():
        lines.append(indent + f"{name:<28}{count:>7}{wall:>10.1f}")
    return lines


def _span_tree_lines(spans: List[Dict[str, Any]], indent: str = "  ") -> List[str]:
    """Aggregate spans by their name *path* and indent nested phases.

    Span ids are monotonic in opening order, so a parent's id is always
    smaller than its children's — sorting the aggregated paths by their
    smallest member id lists every parent before its children and keeps
    siblings in first-open order.
    """
    by_id = {rec["id"]: rec for rec in spans if isinstance(rec.get("id"), int)}
    totals: Dict[tuple, List[float]] = {}
    for rec in spans:
        path = [rec["name"]]
        parent, seen = rec.get("parent_id"), set()
        while parent in by_id and parent not in seen:
            seen.add(parent)
            path.append(by_id[parent]["name"])
            parent = by_id[parent].get("parent_id")
        key = tuple(reversed(path))
        entry = totals.setdefault(key, [0, 0.0, rec.get("id", 0)])
        entry[0] += 1
        entry[1] += rec["wall_ms"]
        entry[2] = min(entry[2], rec.get("id", 0))
    header = f"{'span':<28}{'count':>7}{'wall ms':>10}"
    lines = [indent + header, indent + "-" * len(header)]
    for key in sorted(totals, key=lambda k: totals[k][2]):
        count, wall, _ = totals[key]
        label = "  " * (len(key) - 1) + key[-1]
        lines.append(indent + f"{label:<28}{count:>7}{wall:>10.1f}")
    return lines


def _picks(total: int, max_rows: int) -> List[int]:
    """Evenly spaced display rows, always keeping first and last."""
    if total <= max_rows:
        return list(range(total))
    return sorted({round(i * (total - 1) / (max_rows - 1)) for i in range(max_rows)})


def _front_lines(front: Dict[str, List[Any]], max_rows: int = 12) -> List[str]:
    """ASCII informed-front timeline: one bar per sampled round."""
    rounds = front.get("round") or []
    times = front.get("time") or []
    counts = front.get("informed") or []
    if not rounds or len(times) != len(rounds) or len(counts) != len(rounds):
        return []
    # Probe columns may carry None for rounds sampled before the
    # algorithm registered its probes (the round-0 baseline).
    counts = [c if isinstance(c, (int, float)) else 0 for c in counts]
    peak = max(max(counts), 1)
    width = 40
    lines = ["  informed front:"]
    for i in _picks(len(rounds), max_rows):
        bar = "#" * max(1 if counts[i] else 0, round(width * counts[i] / peak))
        lines.append(
            f"    r{rounds[i]:>4}  t={_fmt(times[i]):>8}  "
            f"{counts[i]:>8}  {bar}"
        )
    return lines


def render_critical_path(records: List[Dict[str, Any]], max_rows: int = 12) -> str:
    """Render the schema v2 ``path`` records of one telemetry file:
    the hop chain, the dilation attribution tables, the slack summary
    and an ASCII informed-front timeline.  Raises ``ValueError`` when
    the file has no path records (run with ``--trace`` to produce them).
    """
    runs = {r["id"]: r for r in records if r.get("type") == "run"}
    traces = {r.get("run"): r for r in records if r.get("type") == "trace"}
    paths = [r for r in records if r.get("type") == "path"]
    if not paths:
        raise ValueError(
            "no path records in this telemetry file — "
            "produce one with `repro run --engine event --trace out.jsonl`"
        )
    lines: List[str] = []
    for rec in paths:
        rid = rec.get("run")
        cfg = runs.get(rid, {}).get("config", {})
        desc = " ".join(
            f"{k}={_fmt(cfg[k])}" for k in ("algorithm", "n", "seed") if k in cfg
        )
        if lines:
            lines.append("")
        head = (
            f"run {rid} ({desc}): critical path {rec.get('length')} hop(s), "
            f"sim_time {_fmt(rec.get('sim_time'))}"
        )
        if "rounds" in rec:
            head += (
                f", rounds {rec['rounds']}, dilation {_fmt(rec.get('dilation'))}"
            )
        trace = traces.get(rid)
        if trace:
            head += f", contacts {trace.get('contacts')}"
        lines.append(head)

        hops = rec.get("hops") or {}
        names = [
            n for n in ("round", "kind", "src", "dst", "start", "complete", "delay")
            if n in hops
        ]
        total = len(hops.get("round", []))
        if names and total:
            rows = [
                ["hop"] + names,
            ]
            for i in _picks(total, max_rows):
                rows.append([str(i)] + [_fmt(hops[n][i]) for n in names])
            widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
            for k, row in enumerate(rows):
                lines.append(
                    "  " + "  ".join(c.rjust(widths[j]) for j, c in enumerate(row))
                )
                if k == 0:
                    lines.append("  " + "-" * (sum(widths) + 2 * (len(widths) - 1)))
            if total > max_rows:
                lines.append(f"  ({total} hops, {len(_picks(total, max_rows))} shown)")

        # Re-rank by share: the JSONL writer sorts object keys, so the
        # exported dict's insertion order is alphabetical, not ranked.
        node_attr = rec.get("node_attribution") or {}
        if node_attr:
            lines.append("  top nodes by dilation share:")
            for node, share in sorted(node_attr.items(), key=lambda kv: -kv[1])[:5]:
                lines.append(f"    node {node:>6}  {share * 100:6.1f}%")
        edge_attr = rec.get("edge_attribution") or {}
        if edge_attr:
            lines.append("  top edges by dilation share:")
            for edge, share in sorted(edge_attr.items(), key=lambda kv: -kv[1])[:5]:
                lines.append(f"    {edge:>12}  {share * 100:6.1f}%")

        slack = rec.get("slack") or {}
        if slack.get("counts"):
            lines.append(
                f"  slack: mean {_fmt(slack.get('mean'))}, "
                f"max {_fmt(slack.get('max'))} over "
                f"{sum(slack['counts'])} deliveries in "
                f"{len(slack['counts'])} bins"
            )
        front = rec.get("front") or {}
        lines.extend(_front_lines(front, max_rows))
    return "\n".join(lines)


def render_report(records: List[Dict[str, Any]], max_series_rows: int = 12) -> str:
    """The human-readable rendering of one telemetry file."""
    meta = records[0] if records and records[0].get("type") == "meta" else {}
    runs = [r for r in records if r.get("type") == "run"]
    spans: Dict[int, List[Dict[str, Any]]] = {}
    series: Dict[int, Dict[str, Any]] = {}
    events: Dict[int, int] = {}
    paths: Dict[int, Dict[str, Any]] = {}
    for rec in records:
        if rec.get("type") == "span":
            spans.setdefault(rec["run"], []).append(rec)
        elif rec.get("type") == "series":
            series[rec["run"]] = rec
        elif rec.get("type") == "path":
            paths[rec["run"]] = rec
        elif rec.get("type") == "event":
            events[rec["run"]] = events.get(rec["run"], 0) + 1

    lines = [
        f"telemetry: schema {meta.get('schema', '?')}, {len(runs)} run(s), "
        f"probe_every={meta.get('probe_every', '?')}"
    ]

    # Aggregate phase × wall-clock over every run that recorded phases.
    agg: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        for name, st in (run.get("phases") or {}).items():
            cell = agg.setdefault(
                name, {"rounds": 0, "messages": 0, "bits": 0, "wall_ms": 0.0}
            )
            for key in cell:
                cell[key] += st.get(key, 0)
    if agg:
        lines.append("")
        lines.append(f"phase x wall-clock (summed over {len(runs)} run(s)):")
        lines.extend(_phase_lines(agg))

    for run in runs[:_DETAIL_RUNS]:
        rid = run["id"]
        cfg = run.get("config", {})
        desc = " ".join(f"{k}={_fmt(v)}" for k, v in cfg.items())
        lines.append("")
        lines.append(f"run {rid}: {desc}")
        summary = run.get("summary", {})
        if summary:
            lines.append(
                "  summary: " + " ".join(f"{k}={_fmt(v)}" for k, v in summary.items())
            )
        if run.get("phases"):
            lines.extend(_phase_lines(run["phases"]))
        elif spans.get(rid):
            lines.extend(_span_lines(spans[rid]))
        if rid in series:
            rec = series[rid]
            thin = " (decimated)" if rec.get("decimated") else ""
            lines.append(f"  round series{thin}:")
            lines.extend(_series_table(rec["columns"], max_series_rows))
        if rid in paths:
            p = paths[rid]
            note = (
                f"  critical path: {p.get('length')} hop(s), "
                f"sim_time {_fmt(p.get('sim_time'))}"
            )
            if "dilation" in p:
                note += f", dilation {_fmt(p['dilation'])}"
            lines.append(note + " (render with --critical-path)")
        if events.get(rid):
            lines.append(f"  algorithm events: {events[rid]}")

    if len(runs) > _DETAIL_RUNS:
        lines.append("")
        for run in runs[_DETAIL_RUNS:]:
            summary = run.get("summary", {})
            brief = " ".join(
                f"{k}={_fmt(summary[k])}"
                for k in ("rounds", "rounds_mean", "messages", "messages_total", "success", "success_rate")
                if k in summary
            )
            lines.append(f"run {run['id']}: {brief}")
    return "\n".join(lines)
