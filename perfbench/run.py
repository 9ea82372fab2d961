"""The repository benchmark: replication throughput of the gossip simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cluster2-vector --seed 1 --seconds 16 --trace 0

Every measurement runs in a fresh interpreter (``perfbench/child.py``)
pinned to one BLAS/OpenMP thread, so set-up time and peak memory belong
to that workload alone.  ``--trace 0`` runs the workload in
``PROCESSES`` consecutive processes that split ``--seconds`` between
them and reports the end-to-end metrics:

- ``rep_cost_kernels``: what one replication costs, in runs of the
  fixed reference kernel (``reference.py``) timed right after every
  call: the median over calls of the call's seconds per replication
  over the seconds of the kernel run that followed it.  On a shared
  host, other tenants can slow it by 20-40% for seconds to minutes; the
  kernel run next to a call slows with it, so the paired ratio repeats
  across runs where seconds do not (the drift-cancelling pairing of the
  repository's own E18/E21 benches).  Plain ``reps/s`` and the
  call-time quantiles are printed alongside;
- ``setup_s``: median over the processes of the time from process start
  to the end of the warm-up call (imports, graph/overlay binding, one
  call);
- ``peak_rss_mib``: median over the processes of their own peak RSS;
- ``msgs_per_node`` and ``spread_rounds``: the paper's cost measures,
  averaged over a fixed prefix of calls, so they repeat exactly for a
  seed.

The share of replications that did not inform every node (the fail
rate) is reported as ``failed`` out of ``attempted``; it is 0 on every
workload, so it is not a metric of its own.

``--trace 1`` runs one untraced process and then one traced process,
each for half of ``--seconds``, and reports the per-layer metrics: each
span's self time and calls per replication, work counts per
replication, the useful-message ratio ``(n - 1) / messages`` and
``trace.overhead_ratio`` (traced over untraced replication cost in
kernel runs).  It also prints each layer's share of the traced self
time.  Spans are written to ``.perfbench-out/``.

The first process of every run also checks outputs before timing (a
replayed seed must repeat bit-for-bit, and a held-out seed must pass),
and every timed call is checked after its clock stops: every
replication informs every node, Cluster2 stays under the E1 spread
envelope, and the straggler clock is dilated at least 2x over rounds.
An exception in the simulator, or a process still running at the
deadline, is a failed check too.  Each process stops topping up the
cost measures' call prefix when its share of the deadline is used up,
so a slow program still reports its metrics.  The last line of output
is one JSON object; the exit code is 1 when a check failed and 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Processes per untraced run: set-up is measured once in each, and
#: per-process effects (memory layout, a noisy neighbour's burst) are
#: spread over several.
PROCESSES = 4
#: Hard wall-clock cap on one benchmark invocation, children included.
DEADLINE_S = 170.0
#: Part of the deadline left over after the last process's share.
MARGIN_S = 20.0

UNITS = {
    "rep_cost_kernels": "kernels",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "msgs_per_node": "msgs/node",
    "spread_rounds": "rounds",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: argparse.Namespace, wl, process: int, seconds: float, *, check: bool,
          trace: bool, deadline: float, stop_by: float, spans_out: str = None) -> dict:
    """Run one ``child.py`` process to completion and parse its result.

    A process that overruns the deadline is killed and reported as a
    failed call, like an exception in the simulator."""
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--process", str(process),
        "--seconds", repr(seconds),
        "--check", str(int(check)),
        "--trace", str(int(trace)),
        "--stop-by", repr(stop_by),
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    timeout = max(deadline - time.monotonic(), 1.0)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {
            "call_s": [],
            "attempted": wl.reps_per_call,
            "failed": wl.reps_per_call,
            "problems": [f"process {process} did not finish within the "
                         f"{DEADLINE_S:.0f} s deadline"],
        }
    if proc.returncode != 0:
        raise BenchError(f"process {process} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"process {process} printed no result")
    return json.loads(lines[-1])


def rep_cost_kernels(wl, results: list) -> float:
    """Median over calls of seconds per replication over the seconds of
    the reference-kernel run right after the call."""
    return statistics.median(
        call / wl.reps_per_call / kernel
        for r in results
        for call, kernel in zip(r["call_s"], r["kernel_s"])
    )


def end_to_end(wl, results: list) -> dict:
    cost_calls = sum(r["cost"]["calls"] for r in results)
    if cost_calls < wl.cost_calls * len(results):
        print(f"# note: the deadline cut the cost prefix to {cost_calls} of "
              f"{wl.cost_calls * len(results)} calls; msgs_per_node and "
              f"spread_rounds are not the seed's exact values")
    cost_reps = sum(r["cost"]["reps"] for r in results)
    return {
        "rep_cost_kernels": rep_cost_kernels(wl, results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in results),
        "msgs_per_node": sum(r["cost"]["messages_per_node"] for r in results) / cost_reps,
        "spread_rounds": sum(r["cost"]["spread_rounds"] for r in results) / cost_reps,
    }


def per_layer(wl, untraced: dict, traced: dict) -> dict:
    from tracer import COUNTS, SPANS

    reps = traced["reps"]
    metrics = {}
    for name in SPANS:
        calls, self_s = traced["self_times"].get(name, (0, 0.0))
        metrics[f"{name}.self_ms_per_rep"] = (self_s * 1e3 / reps, "ms/rep")
        metrics[f"{name}.calls_per_rep"] = (calls / reps, "calls/rep")
    for name in COUNTS:
        metrics[name] = (traced["counts"][name] / reps, "count/rep")
    messages = untraced["cost"]["messages_per_node"] / untraced["cost"]["reps"] * wl.n
    metrics["useful_msg_ratio"] = ((wl.n - 1) / messages, "ratio")
    metrics["trace.overhead_ratio"] = (
        rep_cost_kernels(wl, [traced]) / rep_cost_kernels(wl, [untraced]),
        "ratio",
    )
    return metrics


def layer_shares(wl, traced: dict) -> None:
    """Print each layer's share of the traced self time, marking the
    layers the workload is predicted to exercise or bypass."""
    totals: dict = {}
    for name, (_calls, self_s) in traced["self_times"].items():
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + self_s
    whole = sum(totals.values())
    dominant = sum(totals.get(layer, 0.0) for layer in wl.dominant) / whole
    print(f"# {wl.name}: traced self time by layer ({whole:.2f} s)")
    for layer, self_s in sorted(totals.items(), key=lambda kv: -kv[1]):
        mark = "dominant" if layer in wl.dominant else "BYPASSED" if layer in wl.bypassed else ""
        print(f"#   {layer:<14} {100 * self_s / whole:6.2f}%  {mark}")
    print(f"#   predicted-dominant layers together: {100 * dominant:.1f}%")
    for layer in wl.bypassed:
        share = totals.get(layer, 0.0) / whole
        if share >= 0.05:
            print(f"#   note: bypassed layer {layer} took {100 * share:.1f}% (predicted none)")


def call_times(wl, results: list) -> None:
    """Print the timed calls' quantiles and mean rate (not gated: they
    carry the host's slow stretches)."""
    call_s = [c for r in results for c in r["call_s"]]
    kernel_s = [k for r in results for k in r["kernel_s"]]
    deciles = statistics.quantiles(call_s, n=10)
    reps = sum(r["reps"] for r in results)
    print(f"# {wl.name}: {len(call_s)} timed calls of {wl.reps_per_call} reps; "
          f"call ms p50 {deciles[4] * 1e3:.2f}, p90 {deciles[8] * 1e3:.2f}; "
          f"reference kernel ms p50 {statistics.median(kernel_s) * 1e3:.3f}; "
          f"{reps / sum(call_s):.4g} reps/s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if args.trace:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans_out = str(out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl")
        plan = [
            dict(seconds=args.seconds / 2, check=True, trace=False),
            dict(seconds=args.seconds / 2, check=False, trace=True, spans_out=spans_out),
        ]
    else:
        plan = [
            dict(seconds=args.seconds / PROCESSES, check=(k == 0), trace=False)
            for k in range(PROCESSES)
        ]
    share = (DEADLINE_S - MARGIN_S) / len(plan)
    results = []
    try:
        for k, options in enumerate(plan):
            results.append(spawn(args, wl, k, deadline=deadline,
                                 stop_by=start + (k + 1) * share, **options))
            if not results[-1]["call_s"]:
                break  # the program failed before timing; measure nothing more
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    timed = [r for r in results if r["call_s"]]
    metrics = {}
    if args.trace and len(timed) == len(plan):
        metrics = per_layer(wl, *timed)
        layer_shares(wl, timed[1])
    elif not args.trace and timed:
        metrics = {k: (v, UNITS[k]) for k, v in end_to_end(wl, timed).items()}
        call_times(wl, timed)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    for problem in problems:
        print(f"# check failed: {problem}")
    print(f"# {wl.name} seed={args.seed}: {attempted} reps checked, "
          f"fail_rate {failed / max(attempted, 1):g}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<48} {value:14.6g} {unit}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
