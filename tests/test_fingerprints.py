"""Replay the versioned engine-fingerprint corpus (tests/fingerprints/).

Every corpus case is one fully seeded configuration whose headline
output — rounds, messages, bits, max fan-in, informed count — was pinned
on the pre-scale-tier engine.  Each case is replayed through three
execution shapes:

* ``broadcast`` — a fresh network: the first run of a one-seed
  :class:`repro.core.broadcast.ReplicationEngine`;
* ``lean-replication`` — a reset network: the engine's second run, on
  an in-place ``Network.reset``;
* ``event-zero-latency`` — the default path under the event-tier
  scheduler at zero latency: the timing overlay must never perturb the
  algorithm's randomness, deliveries, or metrics.

Bit-identity of the shapes is the scale tier's core safety claim:
network reuse and clock overlays move allocations and timestamps,
never values.

Run ``pytest tests/test_fingerprints.py --update-fingerprints`` to
rewrite the pinned values after an intentional engine-output change
(see tests/fingerprints/README.md).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.broadcast import ReplicationEngine, broadcast
from repro.registry import make_topology
from repro.sim.schedule import EventSchedulerSpec
from repro.sim.topology import ConstantDelay

FINGERPRINT_DIR = Path(__file__).parent / "fingerprints"

#: The pinned figures, in corpus order.
FIELDS = ("rounds", "messages", "bits", "max_fanin", "informed")


def _load_corpora() -> "dict[Path, dict]":
    corpora = {}
    for path in sorted(FINGERPRINT_DIR.glob("*.json")):
        with open(path) as fh:
            corpora[path] = json.load(fh)
    return corpora


def _case_id(path: Path, case: dict) -> str:
    schedule = case.get("schedule") or "static"
    topology = f":{case['topology']}" if case.get("topology") else ""
    return (
        f"{path.stem}:{case['algorithm']}:n={case['n']}:seed={case['seed']}"
        f":{schedule}{topology}"
    )


_CORPORA = _load_corpora()
_CASES = [
    pytest.param(path, index, id=_case_id(path, case))
    for path, corpus in _CORPORA.items()
    for index, case in enumerate(corpus["cases"])
]


def _execute(case: dict, shape: str):
    topology = None
    if case.get("topology"):
        topology = make_topology(
            case["topology"], **case.get("topology_kwargs", {})
        )
    config = dict(
        source=case.get("source", 0),
        message_bits=case.get("message_bits", 256),
        failures=case.get("failures", 0),
        failure_pattern=case.get("failure_pattern", "random"),
        schedule=case.get("schedule"),
        topology=topology,
        direct_addressing=case.get("direct_addressing", "global"),
        **case.get("kwargs", {}),
    )
    if shape == "broadcast":
        return broadcast(case["n"], case["algorithm"], seed=case["seed"], **config)
    if shape == "event-zero-latency":
        return broadcast(
            case["n"],
            case["algorithm"],
            seed=case["seed"],
            scheduler=EventSchedulerSpec(delay=ConstantDelay(0.0)),
            **config,
        )
    engine = ReplicationEngine(case["n"], case["algorithm"], **config)
    # Run a throwaway neighbouring seed first so the pinned seed executes
    # on a *reused* (reset) network — the reuse path is the one under test.
    engine.run(case["seed"] + 1)
    return engine.run(case["seed"])


def _fingerprint(report) -> dict:
    return {
        "rounds": int(report.rounds),
        "messages": int(report.messages),
        "bits": int(report.bits),
        "max_fanin": int(report.max_fanin),
        "informed": int(report.informed.sum()),
    }


@pytest.fixture(scope="module")
def corpora(request):
    """The corpus — regenerated in place first under --update-fingerprints."""
    if request.config.getoption("--update-fingerprints"):
        for path, corpus in _CORPORA.items():
            for case in corpus["cases"]:
                case["fingerprint"] = _fingerprint(_execute(case, "broadcast"))
            with open(path, "w") as fh:
                json.dump(corpus, fh, indent=2, sort_keys=True)
                fh.write("\n")
    return _CORPORA


@pytest.mark.parametrize(
    "shape", ["broadcast", "lean-replication", "event-zero-latency"]
)
@pytest.mark.parametrize("path, index", _CASES)
def test_fingerprint(corpora, path, index, shape):
    case = corpora[path]["cases"][index]
    expected = case["fingerprint"]
    assert set(expected) == set(FIELDS), "corpus fingerprint fields drifted"
    actual = _fingerprint(_execute(case, shape))
    assert actual == expected, (
        f"{_case_id(path, case)} [{shape}] diverged from the pinned corpus; "
        "if this change to engine output is intentional, regenerate with "
        "--update-fingerprints and review the diff"
    )


def test_corpus_is_nontrivial():
    cases = [case for corpus in _CORPORA.values() for case in corpus["cases"]]
    assert len(cases) >= 12
    assert {c["algorithm"] for c in cases} >= {
        "push-pull",
        "cluster1",
        "cluster2",
        "cluster3",
    }
    assert any(c.get("schedule") for c in cases), "corpus lacks dynamic cases"
    assert any(c.get("failures") for c in cases), "corpus lacks faulty cases"
