"""One benchmark process: set up a workload, check it, time it.

``run.py`` starts this script in a fresh interpreter per measurement, so
peak memory and set-up time belong to this process alone.  The process

1. imports the simulator and runs one warm-up call (set-up ends here;
   ``--t0`` is the parent's monotonic clock reading just before spawn);
2. with ``--check 1``, replays the warm-up seed and requires identical
   summary rows and per-rep rows, then runs a held-out seed;
3. issues back-to-back timed calls until ``--seconds`` have passed,
   timing the reference kernel (``reference.py``) after each call and
   checking each call's summary after both clocks stop;
4. tops up the fixed prefix of calls that the cost measures use, unless
   the next call would end past ``--stop-by`` (a monotonic clock
   reading), so a slow program still reports within the deadline;
5. prints one JSON object as its last line of output.

An exception raised by the simulator is a failed check, not a crash of
the benchmark: it is recorded in ``problems``, the call that raised it
counts as attempted and failed, and the process still prints its result
(with whatever timings it had) and exits 0.

With ``--trace 1`` the layer tracer is installed before the warm-up and
its spans are cleared before timing; the JSON then carries per-span
self times and the spans are written to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import time
import traceback

from reference import ReferenceKernel
from workloads import (
    WORKLOADS,
    call_seed,
    check_reps,
    check_summary,
    holdout_seed,
    warmup_seed,
)


def run(args: argparse.Namespace, wl, result: dict) -> None:
    """Steps 1-4, filling ``result`` in place as they go."""
    # ``repro.core`` re-exports a ``broadcast`` function that shadows the
    # submodule of the same name, so fetch the module itself.
    broadcast = importlib.import_module("repro.core.broadcast")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    kwargs = wl.run_kwargs()

    def call(base_seed: int, **extra):
        if tracer is not None and wl.engine == "vector":
            # The vector runners open their phase spans only with a
            # telemetry handle; probe_every this large never samples.
            from repro.obs.telemetry import Telemetry

            extra["telemetry"] = Telemetry(probe_every=1 << 30)
        # Looked up per call, so the traced run goes through the wrapper.
        return broadcast.run_replications(base_seed=base_seed, **kwargs, **extra)

    problems = result["problems"]

    def account(summary) -> None:
        result["attempted"] += summary.reps
        result["failed"] += summary.reps - summary.successes
        problems.extend(check_summary(wl, summary))

    warm_rows: list = []
    warm = call(warmup_seed(args.seed), consume=warm_rows.append)
    result["setup_s"] = time.monotonic() - args.t0
    account(warm)
    problems.extend(check_reps(wl, warm_rows))

    if args.check:
        again_rows: list = []
        again = call(warmup_seed(args.seed), consume=again_rows.append)
        if again.row() != warm.row() or again_rows != warm_rows:
            problems.append("two calls at the same seed gave different summaries")
        held_rows: list = []
        held = call(holdout_seed(args.seed), consume=held_rows.append)
        account(held)
        problems.extend(check_reps(wl, held_rows))

    cost = result["cost"]

    def record(summary, index: int) -> None:
        account(summary)
        if index < wl.cost_calls:
            cost["calls"] += 1
            cost["reps"] += summary.reps
            cost["messages_per_node"] += summary.messages_per_node.mean * summary.reps
            cost["spread_rounds"] += summary.spread_rounds.mean * summary.reps

    kernel = ReferenceKernel(wl.array_elems)
    kernel()
    if tracer is not None:
        tracer.clear()
    call_s = []
    kernel_s = []
    index = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        start = time.perf_counter()
        summary = call(call_seed(args.seed, args.process, index, wl.reps_per_call))
        call_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        kernel()
        kernel_s.append(time.perf_counter() - start)
        record(summary, index)
        index += 1
        if time.perf_counter() >= deadline:
            break
    # Published only once the loop ends, so a failed run reports no timings.
    result.update(reps=index * wl.reps_per_call, call_s=call_s, kernel_s=kernel_s)
    if tracer is not None:
        result["self_times"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        tracer.uninstall()
        if args.spans_out:
            tracer.write(args.spans_out)

    # Untimed, so a slow host still fills the prefix, up to --stop-by.
    last_s = call_s[-1]
    while index < wl.cost_calls and time.monotonic() + last_s < args.stop_by:
        start = time.perf_counter()
        record(call(call_seed(args.seed, args.process, index, wl.reps_per_call)), index)
        last_s = time.perf_counter() - start
        index += 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--process", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--stop-by", type=float, required=True)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    result = {
        "setup_s": None,
        "reps": 0,
        "call_s": [],
        "kernel_s": [],
        "cost": {"calls": 0, "reps": 0, "messages_per_node": 0.0, "spread_rounds": 0.0},
        "attempted": 0,
        "failed": 0,
        "problems": [],
    }
    try:
        run(args, wl, result)
    except Exception as exc:  # the simulator failed: report it, don't crash
        traceback.print_exc()
        result["problems"].append(
            f"process {args.process} raised {type(exc).__name__}: {exc}")
        result["attempted"] += wl.reps_per_call
        result["failed"] += wl.reps_per_call
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
