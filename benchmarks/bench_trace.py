"""E20 — the causal trace layer: zero-cost off, bounded cost on,
invariant critical paths, straggler attribution.

Four claims pinned here:

1. **Off is free.**  Tracing is opt-in on the event scheduler; with it
   off, every fingerprint-corpus configuration replayed under the event
   tier still matches its pinned fingerprint — the PR-8 execution paths
   are untouched byte-for-byte.  (The corpus suite itself guards the
   round engine; this bench replays the corpus to pin the event tier's
   tracing-off outputs too.)

2. **On is bounded.**  Recording every contact and extracting the
   critical path costs at most ``REPRO_E20_GATE`` (default 1.15x) over
   the untraced event tier, measured as the best paired ratio over
   interleaved batches (the E18/E19 methodology) — and tracing never
   perturbs the logical metrics.

3. **Paths are invariant-true.**  On every fingerprint configuration
   the extracted critical path has at most ``rounds`` hops (parent
   rounds strictly decrease along the causal walk), ends exactly at
   ``sim_time``, and each hop starts where its predecessor completed.

4. **Attribution finds the stragglers.**  Under the ``straggler-tail``
   shape (2% of nodes 10x slower) the top dilation contributor is a
   straggler node, and the straggler set's summed share is at least
   ``REPRO_E20_ATTRIBUTION`` (default 0.4) — at least its share of each
   slow hop's endpoints.

``REPRO_E20_N`` shrinks the timing workload for CI; the gates stay as
written.
"""

from __future__ import annotations

import os
import time

import numpy as np

from bench_common import emit, trajectory_note
from repro.analysis.tables import Table
from repro.core.broadcast import broadcast
from repro.registry import make_topology
from repro.sim.rng import derive_seed, make_rng
from repro.sim.schedule import EventSchedulerSpec
from repro.sim.topology import NodeSlowdownDelay

E20_N = int(os.environ.get("REPRO_E20_N", str(2**14)))
E20_REPEATS = int(os.environ.get("REPRO_E20_REPEATS", "8"))
E20_INNER = int(os.environ.get("REPRO_E20_INNER", "6"))
E20_GATE = float(os.environ.get("REPRO_E20_GATE", "1.15"))
E20_ATTRIBUTION = float(os.environ.get("REPRO_E20_ATTRIBUTION", "0.4"))

#: The straggler-tail delay shape both the timing and the attribution
#: sections run: 2% of nodes 10x slower (the E19 dilation shape).
SLOWDOWN = NodeSlowdownDelay(base=1.0, fraction=0.02, factor=10.0)
UNTRACED = EventSchedulerSpec(delay=SLOWDOWN)
TRACED = EventSchedulerSpec(delay=SLOWDOWN, trace=True)


def _run(scheduler, n=None, seed=7):
    return broadcast(
        n or E20_N,
        algorithm="push-pull",
        seed=seed,
        scheduler=scheduler,
    )


def _interleaved_samples(schedulers) -> list:
    samples = [[] for _ in schedulers]
    for _ in range(E20_REPEATS):
        for i, scheduler in enumerate(schedulers):
            start = time.perf_counter()
            for _ in range(E20_INNER):
                _run(scheduler)
            samples[i].append((time.perf_counter() - start) / E20_INNER)
    return samples


def _paired_ratio(on_samples, off_samples) -> float:
    return min(on / off for on, off in zip(on_samples, off_samples))


def _metrics(report) -> tuple:
    return (
        report.rounds,
        report.messages,
        report.bits,
        report.max_fanin,
        int(report.informed.sum()),
    )


def _corpus_cases():
    """Every fingerprint-corpus case, with its pinned figures."""
    import json
    from pathlib import Path

    corpus_dir = Path(__file__).parent.parent / "tests" / "fingerprints"
    for path in sorted(corpus_dir.glob("*.json")):
        with open(path) as fh:
            corpus = json.load(fh)
        for case in corpus["cases"]:
            yield case


def _run_case(case, scheduler):
    topology = None
    if case.get("topology"):
        topology = make_topology(case["topology"], **case.get("topology_kwargs", {}))
    return broadcast(
        case["n"],
        case["algorithm"],
        seed=case["seed"],
        source=case.get("source", 0),
        message_bits=case.get("message_bits", 256),
        failures=case.get("failures", 0),
        failure_pattern=case.get("failure_pattern", "random"),
        schedule=case.get("schedule"),
        topology=topology,
        direct_addressing=case.get("direct_addressing", "global"),
        scheduler=scheduler,
        **case.get("kwargs", {}),
    )


def _check_path_invariants(report) -> int:
    """Assert the critical-path invariants on one traced report;
    returns the path length."""
    path = report.extras["critical_path"]
    assert path.length <= report.rounds, (
        f"critical path {path.length} hops > {report.rounds} rounds — the "
        "causal walk crossed a round boundary backwards"
    )
    if path.length:
        assert path.hops["start"][0] == 0.0
        assert abs(path.hops["complete"][-1] - path.sim_time) < 1e-6
        for i in range(1, path.length):
            assert abs(path.hops["start"][i] - path.hops["complete"][i - 1]) < 1e-6
    return path.length


def test_e20_trace_layer():
    for scheduler in (UNTRACED, TRACED):
        _run(scheduler)  # warm-up

    # -- correctness: tracing never perturbs the logical run ------------
    off = _run(UNTRACED)
    on = _run(TRACED)
    assert _metrics(on) == _metrics(off), (
        "contact tracing perturbed engine output"
    )
    assert on.extras["sim_time"] == off.extras["sim_time"]

    # -- fingerprint corpus: tracing-off untouched, traced paths legal --
    checked = 0
    max_path = 0
    for case in _corpus_cases():
        untraced = _run_case(case, EventSchedulerSpec(delay=SLOWDOWN))
        fingerprint = {
            "rounds": int(untraced.rounds),
            "messages": int(untraced.messages),
            "bits": int(untraced.bits),
            "max_fanin": int(untraced.max_fanin),
            "informed": int(untraced.informed.sum()),
        }
        assert fingerprint == case["fingerprint"], (
            "tracing-off event tier diverged from the pinned corpus on "
            f"{case['algorithm']} n={case['n']} seed={case['seed']}"
        )
        traced = _run_case(case, EventSchedulerSpec(delay=SLOWDOWN, trace=True))
        assert _metrics(traced) == _metrics(untraced)
        max_path = max(max_path, _check_path_invariants(traced))
        checked += 1
    assert checked >= 12, "fingerprint corpus unexpectedly small"

    # -- timing: tracing-on bounded over tracing-off --------------------
    off_s, on_s = _interleaved_samples([UNTRACED, TRACED])
    overhead = _paired_ratio(on_s, off_s)

    # -- attribution: the straggler-tail shape names its stragglers -----
    report = _run(TRACED)
    path = report.extras["critical_path"]
    slow = SLOWDOWN.bind(
        E20_N, None, make_rng(derive_seed(7, "delay"))
    )._slow[0]
    slow_set = set(np.nonzero(slow)[0].tolist())
    top_node, top_share = path.top_nodes(1)[0]
    assert top_node in slow_set, (
        f"top dilation contributor {top_node} (share {top_share:.2f}) is "
        "not a straggler node"
    )
    slow_share = sum(s for v, s in path.node_share.items() if v in slow_set)

    table = Table(
        title="E20: causal trace layer (best of %d interleaved batches, n=%d)"
        % (E20_REPEATS, E20_N),
        columns=["configuration", "per-run (s)", "vs untraced", "notes"],
        caption="Tracing-on records every contact and extracts the "
        "critical path; gate: best paired ratio <= %.2fx.  Corpus: %d "
        "configurations replayed tracing-off (pinned fingerprints) and "
        "tracing-on (path <= rounds on every one).  Attribution: "
        "straggler nodes own %.0f%% of the critical path (floor %.0f%%)."
        % (E20_GATE, checked, slow_share * 100, E20_ATTRIBUTION * 100),
    )
    table.add("event, tracing off", f"{min(off_s):.4f}", "—", "PR-8 paths")
    table.add(
        "event, tracing on",
        f"{min(on_s):.4f}",
        f"{overhead:.3f}x",
        f"{len(report.extras['contact_trace'])} contacts",
    )
    emit(table, "E20_trace")
    trajectory_note(
        "E20_trace",
        gate=E20_GATE,
        attribution_gate=E20_ATTRIBUTION,
        n=E20_N,
        off_s=round(min(off_s), 4),
        on_s=round(min(on_s), 4),
        overhead_ratio=round(overhead, 4),
        corpus_cases=checked,
        max_path_len=max_path,
        top_contributor_share=round(top_share, 4),
        straggler_share=round(slow_share, 4),
    )

    assert overhead <= E20_GATE, (
        f"contact tracing costs {overhead:.3f}x over the untraced event "
        f"tier, exceeding the {E20_GATE:.2f}x gate"
    )
    assert slow_share >= E20_ATTRIBUTION, (
        f"straggler nodes own only {slow_share:.2f} of the critical path, "
        f"under the {E20_ATTRIBUTION:.2f} floor"
    )
