"""Bit-for-bit pin of the coarse algorithm events telemetry exports.

Algorithms report coarse progress (``grow.push``, ``square.iter``,
``pull.round``, ``done``, ``<protocol>.step``, ``task.*``, ...) as
telemetry ``event`` records.  Nothing else pins them: the fingerprint
corpus hashes rounds, messages and bits only.  This file does: per
configuration, one sha256 over every ``event`` record of a seeded
:func:`~repro.core.broadcast.broadcast` run with a
:class:`~repro.obs.telemetry.Telemetry` collector attached.  A change to
an event's kind, round, payload, or order changes a digest.  A
deliberate change re-records them with::

    PYTHONPATH=src python tests/test_event_record_pin.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.broadcast import broadcast
from repro.obs.telemetry import Telemetry

N = 512
SEED = 20261017

#: name -> keyword arguments of one ``broadcast`` run.
RUNS = {
    **{
        algorithm: dict(algorithm=algorithm)
        for algorithm in (
            "avin-elsasser",
            "cluster1",
            "cluster2",
            "cluster3",
            "median-counter",
            "pull",
            "push",
            "push-pull",
        )
    },
    # One uniform and one cluster transport per non-broadcast task.
    **{
        f"{algorithm}-{task}": dict(algorithm=algorithm, task=task)
        for task in ("push-sum", "k-rumor", "min-max")
        for algorithm in ("push-pull", "cluster2")
    },
    "cluster2-churn-light": dict(algorithm="cluster2", schedule="churn-light"),
    "cluster2-failures": dict(algorithm="cluster2", failures=40),
    "cluster2-event": dict(algorithm="cluster2", scheduler="event"),
}

#: sha256 per case, recorded while the events still travelled through a
#: separate round-event log (they must not change).
DIGESTS = {
    "avin-elsasser": (
        "144ecddb783ed3b5b776d9a415f4f902b0127ee5e320937c5ed0af6e7186d276"
    ),
    "cluster1": (
        "df2b5888f8f4f4ffb3037dfbca5e24eeb43525616fe167a9e7a4e565e409d593"
    ),
    "cluster2": (
        "3a20ab4aae735ae1e8e881785559866858cba84c42f3b8ed328afe2d8dd2e329"
    ),
    "cluster3": (
        "97a20a7387eaaa62fb64b194e04f9ddc491ac54a00764e68a129128e52c941d6"
    ),
    "median-counter": (
        "96532b641f3936d60e03fffb8a8b1b8cf16b073395cc062a49ceaa237da9ce02"
    ),
    "pull": (
        "ee2e739e22f7a378e448b1db95a6054cb47581d58bb7c5a185414fc5d6e25f57"
    ),
    "push": (
        "432742eee64a54bc20aa70e0bc1094278bf8e40275e68f928e04ca0a61f374c7"
    ),
    "push-pull": (
        "cd3b21e53f342d3f154f13c78664631854926ff2577e425c385f1fb57205bcd2"
    ),
    "push-pull-push-sum": (
        "e0e7c443ec79fac17f2ca34aefa5be1cae82ed6c0ba6bfcf02fe9e1e45da7964"
    ),
    "cluster2-push-sum": (
        "a048b2d32e2c2f6cefdeb1268ee5022ff6bdb4d239c04dde40ed937dc20a9dce"
    ),
    "push-pull-k-rumor": (
        "487f46e5b52666a12c81b91fb809c9ea3b99a78a039b1db9f3ce8377fad90b5e"
    ),
    "cluster2-k-rumor": (
        "a483564c6d73cfc2e9b62ac37f181586a78d19e46238f63c4123971e9f2119c8"
    ),
    "push-pull-min-max": (
        "1e4ae86c0314aa355c2d2720a4d1f4453f9e718c9131c3029bdc9043d548f286"
    ),
    "cluster2-min-max": (
        "a048b2d32e2c2f6cefdeb1268ee5022ff6bdb4d239c04dde40ed937dc20a9dce"
    ),
    "cluster2-churn-light": (
        "d4b5c1a957066d8d60c2ff75aafcc0afd57e65bad54e760309b79fd456fdb072"
    ),
    "cluster2-failures": (
        "f49e2c6a18be75dcabf28d64cc104a47b2f90f611c9f03b46732883bd399323b"
    ),
    "cluster2-event": (
        "3a20ab4aae735ae1e8e881785559866858cba84c42f3b8ed328afe2d8dd2e329"
    ),
}


def event_records(name: str) -> list:
    kwargs = dict(RUNS[name])
    algorithm = kwargs.pop("algorithm")
    telemetry = Telemetry()
    broadcast(N, algorithm, seed=SEED, telemetry=telemetry, **kwargs)
    return [r for r in telemetry.records() if r["type"] == "event"]


def case_digest(name: str) -> str:
    h = hashlib.sha256()
    for record in event_records(name):
        h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_event_records_are_pinned(name):
    assert case_digest(name) == DIGESTS[name]


def test_every_case_records_events():
    # A digest of nothing would pin nothing.
    for name in RUNS:
        assert event_records(name), name


if __name__ == "__main__":
    for case in RUNS:
        print(f'    "{case}": (\n        "{case_digest(case)}"\n    ),')
