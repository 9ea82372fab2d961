"""Command-line entry point: ``python -m repro <command> ...``.

Commands:

* ``run`` — one broadcast with full phase breakdown; ``--churn``,
  ``--loss`` and ``--schedule`` add a dynamic-adversity timeline;
  ``--task``/``--task-arg`` select the workload semantics (k-rumor
  all-cast, push-sum averaging, ...); ``--topology``/``--topology-arg``
  pick the contact graph and ``--addressing`` the direct-addressing
  mode; ``--scheduler event``/``--delay SPEC`` switch to the
  event execution tier (same logical rounds, per-node clocks over
  per-contact latencies); ``--reps N`` streams N seeded
  replications through the scale
  tier (``--stream`` prints each as it passes, ``--engine`` picks the
  executor);
* ``sweep`` — an algorithm x n x seed grid, rendered as a table
  (``--workers N`` fans the jobs out over N processes);
* ``report`` — render a telemetry JSONL file (written by
  ``run``/``sweep`` ``--telemetry out.jsonl``, sampling every
  ``--probe-every K`` rounds) as a phase x wall-clock table plus
  round-series summaries; ``--critical-path`` renders a ``--trace``
  file's causal analysis (hop chain, dilation attribution, slack,
  informed front) instead;
* ``bench check`` — diff freshly produced ``BENCH_*.json`` trajectory
  notes against the committed baselines (gate drift or a wall-clock
  regression on a same-size run fails);
* ``scenario`` — a named workload preset;
* ``suite`` — a scenario x seed grid through the parallel executor
  (``--json PATH`` dumps the records for CI artifacts; ``--reps N``
  switches the cells to streamed replication aggregates);
* ``lower-bound`` — the Section 6 feasibility experiment;
* ``list-algorithms`` / ``list-tasks`` / ``list-topologies`` /
  ``list-scenarios`` / ``list-schedules`` — the registry catalogues
  (``list`` prints all five).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from repro.analysis.runner import (
    aggregate,
    expand_grid,
    record_from_report,
    sweep,
    sweep_reports,
)
from repro.analysis.tables import Table
from repro.core.broadcast import REPLICATION_ENGINES, broadcast, run_replications
from repro.obs import (
    Telemetry,
    TelemetryConfig,
    read_jsonl,
    render_critical_path,
    render_report,
    validate_records,
)
from repro.core.lower_bound import min_feasible_rounds, theorem3_bound
from repro.registry import (
    algorithm_names,
    algorithm_specs,
    compatible_algorithms,
    compatible_topologies,
    make_topology,
    task_names,
    task_specs,
    topology_names,
    topology_specs,
)
from repro.sim.dynamics import (
    SCHEDULES,
    AdversitySchedule,
    CrashTrickle,
    MessageLoss,
    resolve_schedule,
    schedule_names,
)
from repro.sim.schedule import (
    SCHEDULER_NAMES,
    EventSchedulerSpec,
    parse_delay,
)
from repro.workloads.scenarios import (
    SCENARIOS,
    replicate_suite,
    run_scenario,
    run_suite,
    scenario_names,
)


def _version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro-gossip")
    except Exception:
        import repro

        return repro.__version__


def _parse_task_arg(text: str) -> "tuple[str, Any]":
    """Parse one ``--task-arg``/``--topology-arg`` ``KEY=VALUE``
    (ints, floats and true/false auto-coerced)."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"argument {text!r} is not KEY=VALUE"
        )
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    value: Any = raw
    for cast in (int, float):
        try:
            value = cast(raw)
            break
        except ValueError:
            continue
    return key, value


def _topology_from_args(args: argparse.Namespace):
    """Build the ``--topology``/``--topology-arg`` spec (None = complete)."""
    name = getattr(args, "topology", None)
    topo_kwargs = dict(getattr(args, "topology_arg", None) or [])
    if name is None:
        if topo_kwargs:
            raise ValueError("--topology-arg needs --topology")
        return None
    return make_topology(name, **topo_kwargs)


def _add_topology_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology",
        default=None,
        choices=topology_names(),
        help="contact topology (default: the paper's complete graph; "
        "see list-topologies)",
    )
    parser.add_argument(
        "--topology-arg",
        type=_parse_task_arg,
        action="append",
        metavar="KEY=VALUE",
        help="topology knob, repeatable (e.g. --topology-arg k=2, "
        "--topology-arg d=8)",
    )
    parser.add_argument(
        "--addressing",
        default="global",
        choices=["global", "topology"],
        dest="direct_addressing",
        help="direct-addressing mode: 'global' (the paper's model: "
        "learned addresses are always routable) or 'topology' (direct "
        "calls must follow contact-graph edges)",
    )


def _schedule_from_args(args: argparse.Namespace) -> Optional[AdversitySchedule]:
    """Compose ``--schedule`` / ``--churn`` / ``--loss`` into one timeline."""
    events = []
    base = resolve_schedule(getattr(args, "schedule", None))
    if base is not None:
        events.extend(base.events)
    churn = getattr(args, "churn", None)
    if churn:
        events.append(CrashTrickle(rate=churn))
    loss = getattr(args, "loss", None)
    if loss:
        events.append(MessageLoss(p=loss))
    return AdversitySchedule(tuple(events)) if events else None


def _add_dynamics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--schedule",
        default=None,
        help="dynamic-adversity timeline: a preset name (see list-schedules) "
        "or a spec string like 'loss:0.02,crash@5:0.1,blackout@8-12:64'",
    )
    parser.add_argument(
        "--churn",
        type=float,
        default=None,
        help="per-node per-round Bernoulli crash probability (adds a trickle "
        "on top of --schedule)",
    )
    parser.add_argument(
        "--loss",
        type=float,
        default=None,
        help="i.i.d. per-message drop probability (adds a loss window on top "
        "of --schedule)",
    )


def _add_scheduler_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheduler",
        default=None,
        choices=list(SCHEDULER_NAMES),
        help="execution tier: 'round' (the paper's synchronous engine, "
        "default) or 'event' (the event tier: same logical rounds, "
        "per-contact latencies, per-node simulated clocks)",
    )
    parser.add_argument(
        "--delay",
        default=None,
        metavar="SPEC",
        help="latency model for the event tier (implies --scheduler event): "
        "NAME[:ARGS], e.g. 'constant:2', 'jitter:0.5,1.5', "
        "'straggler:fraction=0.02,factor=10', 'wan', 'rate-limited'",
    )


def _scheduler_from_args(args: argparse.Namespace) -> "EventSchedulerSpec | str | None":
    """Compose ``--scheduler`` / ``--delay`` into one scheduler spec
    (``--delay`` implies the event tier)."""
    name = getattr(args, "scheduler", None)
    delay = getattr(args, "delay", None)
    if delay is not None:
        if name == "round":
            raise ValueError("--delay needs the event tier, not --scheduler round")
        return EventSchedulerSpec(delay=parse_delay(delay))
    return name


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="collect observability data (wall-clock spans, per-round "
        "probe series, algorithm events) and export it as JSONL to PATH "
        "(render with `repro report PATH`)",
    )
    parser.add_argument(
        "--probe-every",
        type=int,
        default=1,
        metavar="K",
        help="with --telemetry, sample the per-round probes every K "
        "committed rounds (default 1)",
    )


def _collector_from_args(args: argparse.Namespace) -> Optional[Telemetry]:
    """The collector for ``--telemetry``, or for ``--trace PATH``: tracing
    needs a collector to export through even when ``--telemetry`` is
    absent."""
    if args.telemetry is None and getattr(args, "trace", None) is None:
        return None
    return Telemetry(probe_every=args.probe_every)


def _settings_from_args(args: argparse.Namespace) -> Dict[str, Any]:
    """The run settings the flags set, as one mapping: `run`, `run
    --reps`, `sweep` and `sweep --telemetry` all forward it."""
    settings = dict(
        message_bits=args.message_bits,
        schedule=_schedule_from_args(args),
        topology=_topology_from_args(args),
        direct_addressing=args.direct_addressing,
        scheduler=_scheduler_from_args(args),
    )
    if args.command == "run":
        settings.update(
            failures=args.failures,
            task=args.task,
            task_kwargs=dict(args.task_arg or []),
            trace=args.trace is not None,
        )
    return settings


def _write_telemetry(collector: Optional[Telemetry], path: Optional[str]) -> None:
    if collector is None or path is None:
        return
    count = collector.write(path)
    print(f"wrote {count} telemetry records to {path}")


def _write_trace(collector: Optional[Telemetry], args: argparse.Namespace) -> None:
    """Export the collector to the ``--trace`` path (when it differs from
    the ``--telemetry`` path, which `_write_telemetry` already covered)."""
    trace_path = getattr(args, "trace", None)
    if trace_path is not None and trace_path != getattr(args, "telemetry", None):
        _write_telemetry(collector, trace_path)


def _replication_table(summaries, title: str) -> Table:
    table = Table(
        title=title,
        columns=[
            "algorithm", "task", "n", "reps", "engine", "spread mean",
            "spread q50/q90", "msgs/node", "maxΔ", "success (wilson)",
        ],
    )
    for s in summaries:
        spread = s.metrics["spread_rounds"]
        lo, hi = s.success_interval()
        table.add(
            s.algorithm,
            s.task,
            s.n,
            s.reps,
            s.engine,
            f"{spread.mean:.2f}±{1.96 * spread.std / max(s.reps, 1) ** 0.5:.2f}",
            f"{spread.quantile(0.5):.0f}/{spread.quantile(0.9):.0f}",
            f"{s.metrics['messages_per_node'].mean:.2f}",
            int(s.metrics["max_fanin"].maximum),
            f"{s.success_rate:.3f} [{lo:.3f}, {hi:.3f}]",
        )
    return table


def _cmd_run_replications(args: argparse.Namespace) -> int:
    consume = None
    if args.stream:

        def consume(scalars: dict) -> None:
            seed = scalars["seed"]
            who = f"seed={seed}" if seed is not None else f"rep={scalars['rep']}"
            print(
                f"  rep {scalars['rep'] + 1}/{args.reps} ({who}): "
                f"spread={scalars['spread_rounds']} "
                f"msgs/node={scalars['messages_per_node']:.2f} "
                f"success={scalars['success']}"
            )

    collector = _collector_from_args(args)
    summary = run_replications(
        args.n,
        args.algorithm,
        reps=args.reps,
        base_seed=args.seed,
        engine=args.engine,
        consume=consume,
        workers=args.workers,
        telemetry=collector,
        **_settings_from_args(args),
    )
    print(_replication_table([summary], f"{args.reps} replications").render())
    if args.trace is not None:
        row = summary.row()
        if "critical_path_len_mean" in row:
            print(
                f"critical path: mean {row['critical_path_len_mean']} hop(s), "
                f"max {row['critical_path_len_max']:.0f}; "
                f"dilation mean {row.get('dilation_mean', 0)} "
                f"(render with `repro report --critical-path {args.trace}`)"
            )
    if args.json:
        payload = {
            "algorithm": summary.algorithm,
            "task": summary.task,
            "n": summary.n,
            "engine": summary.engine,
            "reps": summary.reps,
            "summary": summary.row(),
            "extras": summary.extras,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        print(f"wrote replication summary to {args.json}")
    _write_telemetry(collector, args.telemetry)
    _write_trace(collector, args)
    return 0 if summary.success_rate > 0 else 1


def _cmd_run(args: argparse.Namespace) -> int:
    # Configuration errors — an (algorithm, task) pair with no registered
    # transport, an incompatible topology, an unknown knob — are user
    # input, not bugs: print the library's message cleanly instead of a
    # traceback.  (broadcast() and run_replications() raise ValueError
    # subclasses for all of them.)
    try:
        return _cmd_run_checked(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_run_checked(args: argparse.Namespace) -> int:
    # Any --reps but 1 goes through run_replications, whose config check
    # refuses --reps below 1 like every other bad input.
    if args.reps != 1:
        return _cmd_run_replications(args)
    if args.stream or args.engine != "auto":
        print(
            "note: --stream/--engine only apply with --reps > 1; "
            "running a single broadcast",
            file=sys.stderr,
        )
    collector = _collector_from_args(args)
    report = broadcast(
        args.n,
        args.algorithm,
        seed=args.seed,
        telemetry=collector,
        **_settings_from_args(args),
    )
    print(report)
    print()
    print(report.metrics.phase_report())
    _write_telemetry(collector, args.telemetry)
    _write_trace(collector, args)
    if "critical_path_len" in report.extras:
        print()
        print(
            f"critical path: {report.extras['critical_path_len']} hop(s) to "
            f"sim_time {report.extras['sim_time']:.2f}, dilation "
            f"{report.extras['dilation']:.2f} (render with "
            f"`repro report --critical-path {args.trace}`)"
        )
    if "task_error" in report.extras:
        print()
        print(
            f"task {report.extras['task']}: error={report.extras['task_error']:.3g} "
            f"converged={report.extras['converged']}"
        )
    if "topology" in report.extras:
        print()
        print(
            f"topology: {report.extras['topology']} "
            f"(direct addressing: {report.extras['direct_addressing']})"
        )
    if "scheduler" in report.extras:
        print()
        print(
            f"scheduler: {report.extras['scheduler']} "
            f"(simulated completion time: {report.extras['sim_time']:.2f})"
        )
    if "schedule" in report.extras:
        print()
        print(f"adversity: {report.extras['schedule']}")
        print(
            f"  crashed={report.extras.get('dyn_crashed', 0)} "
            f"revived={report.extras.get('dyn_revived', 0)} "
            f"messages lost={report.extras.get('dyn_messages_lost', 0)}"
        )
    if args.json:
        from repro.core.broadcast import report_scalars

        payload = {
            "algorithm": args.algorithm,
            "task": args.task,
            "n": args.n,
            "seed": args.seed,
            **report_scalars(report),
            "extras": {
                k: v
                for k, v in report.extras.items()
                if isinstance(v, (str, int, float, bool))
            },
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        print(f"wrote report to {args.json}")
    # Same exemption as `suite`: a run whose source crashed mid-broadcast
    # legitimately informs nobody — that is the model, not a failure.
    ok = report.informed_fraction > 0 or not report.extras.get("source_alive", True)
    return 0 if ok else 1


def _sweep_table(records) -> Table:
    table = Table(
        title="sweep",
        columns=["algorithm", "n", "spread rounds", "msgs/node", "bits/node", "maxΔ", "success"],
    )
    for row in aggregate(records):
        table.add(
            row.algorithm,
            row.n,
            f"{row.spread_rounds.mean:.1f}",
            f"{row.messages_per_node.mean:.2f}",
            f"{row.bits_per_node.mean:.0f}",
            row.max_fanin,
            f"{row.success_rate:.2f}",
        )
    return table


def _sweep_with_telemetry(args: argparse.Namespace):
    """The sweep grid with per-job collectors: jobs run via
    :func:`sweep_reports` (each builds a collector from the frozen
    config inside its worker), the collectors merge back in grid order
    into one file, and the reports flatten into the usual records."""
    specs = expand_grid(
        args.algorithms,
        args.ns,
        list(range(args.seeds)),
        telemetry=TelemetryConfig(probe_every=args.probe_every),
        **_settings_from_args(args),
    )
    reports = sweep_reports(specs, workers=args.workers)
    merged = Telemetry(probe_every=args.probe_every)
    for report in reports:
        merged.merge(report.extras.pop("telemetry"))
    _write_telemetry(merged, args.telemetry)
    return [
        record_from_report(report, spec) for report, spec in zip(reports, specs)
    ]


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Same clean-config-error contract as `run`: an incompatible
    # (algorithm, topology) pair, a bad schedule spec, or an unknown
    # topology knob is user input — print the message, exit 2.
    try:
        if args.telemetry is not None:
            records = _sweep_with_telemetry(args)
        else:
            records = sweep(
                args.algorithms,
                args.ns,
                list(range(args.seeds)),
                workers=args.workers,
                **_settings_from_args(args),
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_sweep_table(records).render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        records = read_jsonl(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = validate_records(records)
    if problems:
        for problem in problems:
            print(f"invalid telemetry: {problem}", file=sys.stderr)
        return 2
    if args.critical_path:
        try:
            print(render_critical_path(records, max_rows=args.series_rows))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    print(render_report(records, max_series_rows=args.series_rows))
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from repro.analysis.benchcheck import check_directories

    try:
        result = check_directories(
            args.baseline, args.fresh, max_regression=args.max_regression
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    return 0 if result.ok else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    # Same clean-config-error contract as `run`/`sweep`: a preset whose
    # configuration the current overrides make unrunnable is user input.
    try:
        report = run_scenario(args.name, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(SCENARIOS[args.name].description)
    print(report)
    print()
    print(report.metrics.phase_report())
    return 0


def _cmd_suite_replicated(args: argparse.Namespace) -> int:
    try:
        cells = replicate_suite(
            args.names or None,
            reps=args.reps,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = [
            {"scenario": cell.scenario, "summary": cell.summary.row()}
            for cell in cells
        ]
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        print(f"wrote {len(payload)} summaries to {args.json}")
    summaries = [cell.summary for cell in cells]
    table = _replication_table(
        summaries, f"replicated scenario suite ({args.reps} reps/cell)"
    )
    print(table.render())
    return 0 if all(s.success_rate > 0 for s in summaries) else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    # As in `run`: --reps below 1 reaches run_replications' config check.
    if args.reps != 1:
        if args.seeds != 1 and args.reps > 1:
            print(
                "note: --seeds is ignored with --reps > 1 (replications "
                f"cover seeds 0..{args.reps - 1} per scenario)",
                file=sys.stderr,
            )
        return _cmd_suite_replicated(args)
    try:
        results = run_suite(
            args.names or None,
            seeds=range(args.seeds),
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = [
            {"scenario": cell.scenario, "record": asdict(cell.record)}
            for cell in results
        ]
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        print(f"wrote {len(payload)} records to {args.json}")
    table = Table(
        title=f"scenario suite ({args.seeds} seed(s))",
        columns=["scenario", "algorithm", "n", "spread", "msgs/node", "maxΔ", "informed"],
    )
    by_scenario = {}
    for cell in results:
        by_scenario.setdefault(cell.scenario, []).append(cell.record)
    for name, recs in by_scenario.items():
        table.add(
            name,
            recs[0].algorithm,
            recs[0].n,
            f"{sum(r.spread_rounds for r in recs) / len(recs):.1f}",
            f"{sum(r.messages_per_node for r in recs) / len(recs):.2f}",
            max(r.max_fanin for r in recs),
            f"{sum(r.informed_fraction for r in recs) / len(recs):.4f}",
        )
    print(table.render())
    # A cell informs nobody legitimately when its source crashed mid-run
    # (dynamic adversity); only a zero with a surviving source is a failure.
    ok = all(
        cell.record.informed_fraction > 0
        or not cell.record.extras.get("source_alive", True)
        for cell in results
    )
    return 0 if ok else 1


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    table = Table(
        title="Theorem 3: minimum feasible rounds (omniscient upper bound on any algorithm)",
        columns=["n", "min feasible T", "0.99 loglog n bound", "seeds"],
    )
    for n in args.ns:
        ts = [min_feasible_rounds(n, seed=s) for s in range(args.seeds)]
        table.add(n, f"{min(ts)}..{max(ts)}", f"{theorem3_bound(n):.2f}", args.seeds)
    print(table.render())
    return 0


def _cmd_list_algorithms(args: argparse.Namespace) -> int:
    print("algorithms:")
    for spec in algorithm_specs():
        flags = spec.category + ("" if spec.broadcastable else ", not broadcastable")
        knobs = f" [{', '.join(spec.kwargs)}]" if spec.kwargs else ""
        print(f"  {spec.name} ({flags}){knobs}: {spec.doc}")
    return 0


def _cmd_list_tasks(args: argparse.Namespace) -> int:
    print("tasks:")
    for spec in task_specs():
        knobs = f" [{', '.join(spec.kwargs)}]" if spec.kwargs else ""
        print(f"  {spec.name} ({spec.category}){knobs}: {spec.doc}")
        print(f"    algorithms: {', '.join(compatible_algorithms(spec.name))}")
    return 0


def _cmd_list_topologies(args: argparse.Namespace) -> int:
    print("topologies:")
    for spec in topology_specs():
        knobs = f" [{', '.join(spec.kwargs)}]" if spec.kwargs else ""
        tag = " (default)" if spec.complete else ""
        print(f"  {spec.name}{tag}{knobs}: {spec.doc}")
    restricted = [
        s.name
        for s in algorithm_specs()
        if s.complete_graph_only
    ]
    if restricted:
        print(f"  complete-graph-only algorithms: {', '.join(restricted)}")
    return 0


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    print("scenarios:")
    for name in scenario_names():
        sc = SCENARIOS[name]
        dyn = f" [schedule: {sc.schedule.describe()}]" if sc.schedule else ""
        print(f"  {name}: {sc.description}{dyn}")
    return 0


def _cmd_list_schedules(args: argparse.Namespace) -> int:
    print("schedules:")
    for name in schedule_names():
        named = SCHEDULES[name]
        print(f"  {name}: {named.description}")
        print(f"    timeline: {named.schedule.describe()}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    _cmd_list_algorithms(args)
    _cmd_list_tasks(args)
    _cmd_list_topologies(args)
    _cmd_list_scenarios(args)
    _cmd_list_schedules(args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal Gossip with Direct Addressing — reproduction CLI",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one broadcast (or a replication suite)")
    p_run.add_argument("--n", type=int, default=4096)
    p_run.add_argument("--algorithm", default="cluster2", choices=algorithm_names())
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--message-bits", type=int, default=256)
    p_run.add_argument("--failures", type=int, default=0)
    p_run.add_argument(
        "--task",
        default="broadcast",
        choices=task_names(),
        help="workload semantics (see list-tasks); the algorithm must "
        "declare compatibility",
    )
    p_run.add_argument(
        "--task-arg",
        type=_parse_task_arg,
        action="append",
        metavar="KEY=VALUE",
        help="task knob, repeatable (e.g. --task-arg k=8, --task-arg tol=1e-4)",
    )
    p_run.add_argument(
        "--reps",
        type=int,
        default=1,
        help="replication count: >1 streams N seeded runs through the "
        "replication layer and prints the aggregate (never materialising "
        "per-seed records)",
    )
    p_run.add_argument(
        "--stream",
        action="store_true",
        help="with --reps, print each replication's figures as it streams past",
    )
    p_run.add_argument(
        "--engine",
        default="auto",
        choices=REPLICATION_ENGINES,
        help="replication engine: vector = batched (R,n) executor, reset = "
        "sequential, one network reset per seed (bit-identical to single "
        "runs), auto = best available",
    )
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="W",
        help="shard the replications across W worker processes (the shard "
        "plan is worker-count independent, so any W yields the same "
        "summary; incompatible with --stream)",
    )
    _add_dynamics_flags(p_run)
    _add_topology_flags(p_run)
    _add_scheduler_flags(p_run)
    _add_telemetry_flags(p_run)
    p_run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="contact-level causal tracing (implies the event tier): "
        "record every contact, extract the critical path to sim_time, "
        "and export schema-v2 telemetry (trace/path records) to PATH "
        "(render with `repro report --critical-path PATH`)",
    )
    p_run.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="dump the run's figures as JSON to PATH for CI artifacts: "
        "the aggregate summary row with --reps > 1, the single report's "
        "scalars otherwise",
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="algorithm x n x seed grid")
    p_sweep.add_argument("--algorithms", nargs="+", default=["push-pull", "cluster2"])
    p_sweep.add_argument("--ns", nargs="+", type=int, default=[2**10, 2**12, 2**14])
    p_sweep.add_argument("--seeds", type=int, default=3)
    p_sweep.add_argument("--message-bits", type=int, default=256)
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial, 0 = one per core); records are "
        "bit-identical for every value",
    )
    _add_dynamics_flags(p_sweep)
    _add_topology_flags(p_sweep)
    _add_scheduler_flags(p_sweep)
    _add_telemetry_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser(
        "report", help="render a telemetry JSONL file (from --telemetry)"
    )
    p_report.add_argument("file", help="telemetry JSONL file to render")
    p_report.add_argument(
        "--series-rows",
        type=int,
        default=12,
        metavar="N",
        help="max displayed rows per round series (default 12)",
    )
    p_report.add_argument(
        "--critical-path",
        action="store_true",
        help="render the schema-v2 critical path instead: hop chain, "
        "per-node/per-edge dilation attribution, slack histogram, and "
        "the ASCII informed-front timeline (needs a --trace file)",
    )
    p_report.set_defaults(func=_cmd_report)

    p_bench = sub.add_parser("bench", help="benchmark trajectory tooling")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_check = bench_sub.add_parser(
        "check",
        help="diff fresh BENCH_*.json trajectory notes against a committed "
        "baseline: gate drift or a wall-clock regression fails",
    )
    p_check.add_argument(
        "baseline", help="directory holding the committed BENCH_*.json files"
    )
    p_check.add_argument(
        "--fresh",
        default=".",
        metavar="DIR",
        help="directory holding the freshly produced BENCH_*.json files "
        "(default: current directory)",
    )
    p_check.add_argument(
        "--max-regression",
        type=float,
        default=0.5,
        metavar="FRAC",
        help="allowed fractional wall-clock growth on same-size runs "
        "before failing (default 0.5 = +50%%)",
    )
    p_check.set_defaults(func=_cmd_bench_check)

    p_sc = sub.add_parser("scenario", help="run a named workload")
    p_sc.add_argument("name", choices=sorted(SCENARIOS))
    p_sc.add_argument("--seed", type=int, default=0)
    p_sc.set_defaults(func=_cmd_scenario)

    p_suite = sub.add_parser("suite", help="scenario x seed grid")
    p_suite.add_argument(
        "names", nargs="*", help="scenario names (default: whole catalogue)"
    )
    p_suite.add_argument("--seeds", type=int, default=1)
    p_suite.add_argument(
        "--reps",
        type=int,
        default=1,
        help="replications per scenario: >1 switches every cell to the "
        "streamed replication layer (aggregates, not per-seed records)",
    )
    p_suite.add_argument("--workers", type=int, default=1)
    p_suite.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also dump every suite record as JSON (CI artifacts)",
    )
    p_suite.set_defaults(func=_cmd_suite)

    p_lb = sub.add_parser("lower-bound", help="Theorem 3 feasibility experiment")
    p_lb.add_argument("--ns", nargs="+", type=int, default=[2**10, 2**14, 2**18])
    p_lb.add_argument("--seeds", type=int, default=5)
    p_lb.set_defaults(func=_cmd_lower_bound)

    p_la = sub.add_parser("list-algorithms", help="the algorithm registry")
    p_la.set_defaults(func=_cmd_list_algorithms)

    p_lt = sub.add_parser("list-tasks", help="the task catalogue")
    p_lt.set_defaults(func=_cmd_list_tasks)

    p_lto = sub.add_parser("list-topologies", help="the contact-topology catalogue")
    p_lto.set_defaults(func=_cmd_list_topologies)

    p_ls = sub.add_parser("list-scenarios", help="the scenario catalogue")
    p_ls.set_defaults(func=_cmd_list_scenarios)

    p_lsc = sub.add_parser("list-schedules", help="the adversity-schedule catalogue")
    p_lsc.set_defaults(func=_cmd_list_schedules)

    p_list = sub.add_parser(
        "list", help="list algorithms, tasks, scenarios and schedules"
    )
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-print: not an error.
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise again, and exit like a SIGPIPE'd process.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
