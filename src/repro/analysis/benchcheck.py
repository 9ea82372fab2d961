"""Bench-trajectory drift checks (``repro bench check``).

Every benchmark writes a ``BENCH_<experiment>.json`` trajectory note at
the repo root (:func:`benchmarks.bench_common.trajectory_note`): the
configuration it ran, its wall clock, and the gate thresholds it
enforced.  Those files are committed, which makes them a baseline the
CI can diff a fresh run against — this module is that diff.

Rules, deliberately asymmetric:

* **Gate keys drift-fail.**  Any key containing ``gate`` is a promised
  threshold; a fresh run emitting a different value silently weakens
  (or tightens) a gate, so a mismatch is a problem.
* **Wall clock regression-fails.**  ``wall_clock_s`` may grow by at
  most ``max_regression`` (a fraction: 0.5 = +50%) — and only when the
  two runs measured the same configuration (same ``n``/``reps``-style
  size keys); a resized run yields a note, not a failure, because CI
  sizes differ from committed full-size baselines.
* **Everything else informs.**  Metric fields (ratios, times, shares)
  are environment-dependent; they are reported as notes so a reviewer
  sees the drift without the check flapping.

Experiments present on only one side are notes too: a fresh-only file
is a new benchmark, a baseline-only file is a bench that did not run —
both are expected in partial CI legs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from glob import glob
from typing import Any, Dict, List, Tuple

#: Default allowed fractional wall-clock growth before failing.
DEFAULT_MAX_REGRESSION = 0.5

#: Keys that identify the measured size; wall-clock comparison is only
#: meaningful when every size key present on both sides matches.
_SIZE_KEYS = ("n", "reps", "R", "repeats", "inner")

#: Keys never compared (measurement noise / environment).
_IGNORED_KEYS = ("peak_rss_mib", "per_rep_ms", "config")


@dataclass
class BenchCheckResult:
    """Outcome of one baseline-vs-fresh trajectory diff."""

    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    compared: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        lines = [
            f"bench check: {len(self.compared)} experiment(s) compared, "
            f"{len(self.problems)} problem(s), {len(self.notes)} note(s)"
        ]
        for problem in self.problems:
            lines.append(f"  FAIL {problem}")
        for note in self.notes:
            lines.append(f"  note {note}")
        return "\n".join(lines)


def load_trajectories(directory: str) -> Dict[str, Dict[str, Any]]:
    """``{experiment: fields}`` for every ``BENCH_*.json`` in a directory;
    a missing or empty one is a ``ValueError``, so a mistyped path fails."""
    paths = sorted(glob(os.path.join(directory, "BENCH_*.json")))
    if not paths:
        state = "holds no BENCH_*.json" if os.path.isdir(directory) else "does not exist"
        raise ValueError(f"bench directory {directory!r} {state}")
    out: Dict[str, Dict[str, Any]] = {}
    for path in paths:
        with open(path) as fh:
            note = json.load(fh)
        name = note.get("experiment") or os.path.basename(path)[6:-5]
        out[str(name)] = note
    return out


def _same_size(base: Dict[str, Any], fresh: Dict[str, Any]) -> Tuple[bool, str]:
    for key in _SIZE_KEYS:
        if key in base and key in fresh and base[key] != fresh[key]:
            return False, f"{key} {base[key]} -> {fresh[key]}"
    return True, ""


def check_trajectories(
    baseline: Dict[str, Dict[str, Any]],
    fresh: Dict[str, Dict[str, Any]],
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> BenchCheckResult:
    """Diff two trajectory sets under the module's rules."""
    result = BenchCheckResult()
    for name in sorted(set(baseline) - set(fresh)):
        result.notes.append(f"{name}: in baseline only (bench did not run)")
    for name in sorted(set(fresh) - set(baseline)):
        result.notes.append(f"{name}: new experiment (no committed baseline)")
    for name in sorted(set(baseline) & set(fresh)):
        base, new = baseline[name], fresh[name]
        result.compared.append(name)
        sized_alike, resize = _same_size(base, new)
        if not sized_alike:
            result.notes.append(
                f"{name}: resized run ({resize}); wall clock not compared"
            )
        for key in sorted(set(base) | set(new)):
            if key in _IGNORED_KEYS or key == "experiment":
                continue
            if key not in base:
                result.notes.append(f"{name}.{key}: new field {new[key]!r}")
                continue
            if key not in new:
                result.notes.append(f"{name}.{key}: field dropped")
                continue
            old_v, new_v = base[key], new[key]
            if "gate" in key:
                if old_v != new_v:
                    result.problems.append(
                        f"{name}.{key}: gate drift {old_v!r} -> {new_v!r}"
                    )
            elif key == "wall_clock_s" and sized_alike:
                try:
                    old_f, new_f = float(old_v), float(new_v)
                except (TypeError, ValueError):
                    continue
                if old_f > 0 and new_f > old_f * (1.0 + max_regression):
                    result.problems.append(
                        f"{name}.wall_clock_s: {old_f:g}s -> {new_f:g}s "
                        f"(+{(new_f / old_f - 1) * 100:.0f}%, limit "
                        f"+{max_regression * 100:.0f}%)"
                    )
            elif old_v != new_v:
                result.notes.append(f"{name}.{key}: {old_v!r} -> {new_v!r}")
    return result


def check_directories(
    baseline_dir: str,
    fresh_dir: str,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> BenchCheckResult:
    """Diff the ``BENCH_*.json`` sets of two directories."""
    return check_trajectories(
        load_trajectories(baseline_dir),
        load_trajectories(fresh_dir),
        max_regression=max_regression,
    )
