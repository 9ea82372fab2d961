"""Steadiness report: how much each end-to-end metric spreads across runs.

Runs every workload of ``BENCHMARK.json`` ``--runs`` times for its
``run_seconds``, with a different seed each round, interleaved (the
workload order rotates every round, so a slow phase of the host hits
all workloads alike), and prints, per workload and
metric, the median, the quartiles, and the quartile spread as a share
of the median next to the metric's bound in ``BENCHMARK.json``.  This
is the evidence behind the bounds.  It also prints ``fail_rate``, the
share of replications that did not inform every node, and exits
non-zero as soon as a run fails its output checks.  Usage, from the
repository root::

    python3 perfbench/steadiness.py --runs 10 --first-seed 2001
    python3 perfbench/steadiness.py --runs 1    # every metric, once

Raw results are written to ``.perfbench-out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()

    values = {w: {} for w in names}
    for r in range(args.runs):
        shift = r % len(names)
        for w in names[shift:] + names[:shift]:
            start = time.monotonic()
            result = run_once(w, args.first_seed + r, spec["run_seconds"])
            wall = time.monotonic() - start
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            values[w].setdefault("fail_rate", []).append(
                result["failed"] / result["attempted"])
            print(f"run {r + 1}/{args.runs} {w} ({wall:.1f} s): " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steadiness.json").write_text(json.dumps(values, indent=1))

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"\n{'workload':<27} {'metric':<14} {'unit':<10} {'median':>10} {'q1':>10}"
          f" {'q3':>10} {'spread':>7} {'bound':>6}  verdict")
    for w in names:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            head = f"{w:<27} {name:<14} {units.get(name, '1'):<10} {med:>10.4g}"
            if name not in bounds or len(vals) < 2:
                print(head)
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            verdict = ("steady" if spread < bound / 3
                       else "within bound" if spread <= bound else "TOO NOISY")
            if name == "setup_s":
                verdict += " (spread not gated)"
            print(f"{head} {q1:>10.4g} {q3:>10.4g}"
                  f" {100 * spread:>6.2f}% {bound:>6.2f}  {verdict}")


if __name__ == "__main__":
    main()
