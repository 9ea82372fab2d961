"""Helpers shared by the experiment benches.

All benches run their grids through the job executor in
:mod:`repro.analysis.runner`; ``REPRO_BENCH_WORKERS`` controls the worker
process count (default: one per core; records are bit-identical for any
value, so parallelism is purely a wall-clock lever).
"""

from __future__ import annotations

import json
import os
from typing import List, Sequence

from repro.analysis.runner import (
    AggregateRow,
    RunRecord,
    RunSpec,
    aggregate,
    sweep,
    sweep_reports,
)
from repro.analysis.tables import Table
from repro.core.result import AlgorithmReport

#: Repo root (BENCH_<exp>.json trajectory files land here).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where tables are written (repo-root results/ when run from the repo).
RESULTS_DIR = os.environ.get("REPRO_RESULTS_DIR", os.path.join(REPO_ROOT, "results"))

#: Experiment ids emitted since collection started, in order — the
#: benchmarks conftest drains this to stamp each experiment's
#: machine-readable trajectory file with the generating test's
#: wall-clock and peak RSS.
EMITTED_EXPERIMENTS: List[str] = []

#: Seeds used by every experiment (w.h.p. claims need several).
SEEDS = [0, 1, 2]

#: Worker processes for every bench grid; 0 = one per core.
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "0") or 0)


def standard_sweep(
    algorithms: Sequence[str], ns: Sequence[int], seeds: Sequence[int] = SEEDS, **kw
) -> List[RunRecord]:
    """The common sweep shape with model-checking off for speed (the test
    suite pins model validity; benches measure)."""
    return sweep(algorithms, ns, seeds, check_model=False, workers=WORKERS, **kw)


def report_sweep(specs: Sequence[RunSpec]) -> List[AlgorithmReport]:
    """Run explicit jobs through the executor, keeping full reports
    (phase metrics, clusterings, survivor counts) in input order."""
    return sweep_reports(specs, workers=WORKERS)


def grouped_report_sweep(cells, make_spec, seeds: Sequence[int] = SEEDS) -> dict:
    """Run ``make_spec(cell, seed)`` jobs for every cell × seed and return
    ``{cell: [report per seed]}``.

    Keeps the cell/seed ↔ report index arithmetic in one place so bench
    fixtures cannot mis-slice the flat result list.
    """
    specs = [make_spec(cell, seed) for cell in cells for seed in seeds]
    reports = report_sweep(specs)
    return {
        cell: reports[i * len(seeds) : (i + 1) * len(seeds)]
        for i, cell in enumerate(cells)
    }


def bench_spec(algorithm: str, n: int, seed: int, **kw) -> RunSpec:
    """A bench-flavored job: model checking off; ``kw`` holds any
    :func:`repro.core.broadcast.broadcast` keyword, settings and
    algorithm knobs alike (:meth:`RunSpec.of` sorts them)."""
    return RunSpec.of(algorithm, n, seed, check_model=False, **kw)


def emit(table: Table, exp_id: str, fmt: str = "text") -> str:
    """Print the table and persist it under results/ (``fmt`` as in
    :meth:`repro.analysis.tables.Table.save`)."""
    EMITTED_EXPERIMENTS.append(exp_id)
    return table.emit(exp_id, RESULTS_DIR, fmt=fmt)


def trajectory_note(experiment: str, **fields) -> str:
    """Merge ``fields`` into ``BENCH_<experiment>.json`` at the repo root.

    The trajectory files are the machine-readable perf record of one
    bench run — schema: ``experiment``, ``config``, ``wall_clock_s``,
    ``per_rep_ms`` (benches that time per-replication work), and
    ``peak_rss_mib``.  The harness conftest stamps the generic timing
    fields for every emitted experiment; benches with richer figures
    (speedup ratios, per-engine per-rep ms) call this directly to merge
    them in.  Returns the file path.
    """
    path = os.path.join(REPO_ROOT, f"BENCH_{experiment}.json")
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data["experiment"] = experiment
    data.update(fields)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def rounds_table(rows: List[AggregateRow], title: str, caption: str = "") -> Table:
    """The default per-(algorithm, n) aggregate table."""
    table = Table(
        title=title,
        columns=[
            "algorithm",
            "n",
            "spread rounds",
            "sched rounds",
            "msgs/node",
            "bits/node",
            "maxΔ",
            "success",
        ],
        caption=caption,
    )
    return table


def fill_rounds_table(table: Table, rows: List[AggregateRow], records: List[RunRecord]) -> None:
    sched = {}
    for rec in records:
        sched.setdefault((rec.algorithm, rec.n), []).append(rec.rounds)
    for row in rows:
        mean_sched = sum(sched[(row.algorithm, row.n)]) / row.runs
        table.add(
            row.algorithm,
            row.n,
            f"{row.spread_rounds.mean:.1f}±{row.spread_rounds.ci95_halfwidth():.1f}",
            f"{mean_sched:.1f}",
            f"{row.messages_per_node.mean:.2f}",
            f"{row.bits_per_node.mean:.0f}",
            row.max_fanin,
            f"{row.success_rate:.2f}",
        )
