"""Bit-for-bit pin of the coarse algorithm events and the round series
telemetry exports.

Algorithms report coarse progress (``grow.push``, ``square.iter``,
``pull.round``, ``done``, ``<algorithm>.step``, ``task.*``, ...) as
telemetry ``event`` records, and the commit hooks sample probes
(``informed``, ``clusters``, ``task_error``, ...) into ``series``
records.  Nothing else pins them: the fingerprint corpus hashes rounds,
messages and bits only.  This file does: per configuration, one sha256
over every ``event`` record and one over every ``series`` record of a
seeded :func:`~repro.core.broadcast.broadcast` run with a
:class:`~repro.obs.telemetry.Telemetry` collector attached.  A change to
an event's kind, round, payload, or order, or to a sampled value,
changes a digest.  A deliberate change re-records them with::

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
    # The uniform broadcast baselines under the same three adversities.
    **{
        f"{algorithm}-{name}": dict(algorithm=algorithm, **setting)
        for algorithm in ("push", "pull", "push-pull")
        for name, setting in (
            ("churn-light", dict(schedule="churn-light")),
            ("failures", dict(failures=40)),
            ("event", dict(scheduler="event")),
        )
    },
}

#: sha256 of each case's ``event`` records.  The single-setting cases
#: were recorded while the events still travelled through a separate
#: round-event log (they must not change).
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
    "push-churn-light": (
        "6346f58f9db4e7a324ca2f162b1f892c5e7d96afcf449d5ae671b5b14751c3c0"
    ),
    "push-failures": (
        "2cbab25f84d73622bca907525511cf53441c0b9aeac1da959f00854961c5ac3f"
    ),
    "push-event": (
        "432742eee64a54bc20aa70e0bc1094278bf8e40275e68f928e04ca0a61f374c7"
    ),
    "pull-churn-light": (
        "45d46dcbcedc1d20e1a0a46075f27e35a3ef4b00599a2be34779dc9b89000992"
    ),
    "pull-failures": (
        "4f303d134b65ec5ddff3352e6cbb8a59f7a844a6df0b32fb5a307269d954408f"
    ),
    "pull-event": (
        "ee2e739e22f7a378e448b1db95a6054cb47581d58bb7c5a185414fc5d6e25f57"
    ),
    "push-pull-churn-light": (
        "541ecde8b21e3e28826ff1bc6c4989c0de93cd46f18c0cdbbdb4df0adf708382"
    ),
    "push-pull-failures": (
        "d0d197dd2bee7fa57e9f6992894d69952f7568b9a3a23bb72d614ac76d55b0de"
    ),
    "push-pull-event": (
        "cd3b21e53f342d3f154f13c78664631854926ff2577e425c385f1fb57205bcd2"
    ),
}

#: sha256 of each case's ``series`` records (the per-round probe samples).
SERIES_DIGESTS = {
    "avin-elsasser": (
        "a716cbd01033bfa4f07fbe04bf8c0902811e74d758dae1e08ba96fb5f3d1a0b8"
    ),
    "cluster1": (
        "6253ca05aef1f312bede0c7980c88673fd09962a0e7c02180f31ef1a7b185fff"
    ),
    "cluster2": (
        "1772551477dc9664e64d3025739dac947910890e55596a666e46e427ad7a9a35"
    ),
    "cluster3": (
        "22cceaad33a207f9c9dcf6deaf7908852d32fdf507e9c0c369a1b9b5cc85a15e"
    ),
    "median-counter": (
        "ec03a1c22577b777e3ba4011a3aa2d195812e75ccc5cf13223f21a3608b20536"
    ),
    "pull": (
        "ce0de231bd5df10547628a94c3969e5c17c19cbb843e5aab98565bed6c138ecd"
    ),
    "push": (
        "897878bf77d2fd012c7c2622c2efde08b3a77e592a412d941095fb2348ec1083"
    ),
    "push-pull": (
        "750be527c8f8a6bac61a82bcb789ff56e3678e64e9ab87d2fbc732e321405711"
    ),
    "push-pull-push-sum": (
        "406316d9ff5e8ef39abf74485eaed3cf3c05c75973b6f267ade1dab3b060c4f7"
    ),
    "cluster2-push-sum": (
        "7c8da6d16d8998e344f509e7adc327884acdf6a262bf441222f2f2fd5414a000"
    ),
    "push-pull-k-rumor": (
        "516b8b50fa207ba98bbeb6ba1e65377597127211a42e227977855c6071b903a6"
    ),
    "cluster2-k-rumor": (
        "2eddf286772e2dcfe60186600ed5013d2151e0db3c738323ca65174fd8026370"
    ),
    "push-pull-min-max": (
        "61622be93c97fd72ad7ca087ffc04aa14bbec8417905f3e6df22389f2989022b"
    ),
    "cluster2-min-max": (
        "c71e27a5b1e8d9a7fe2fe47cb0b7c41d96aac6b46c92062ea6717a5fc9b88117"
    ),
    "cluster2-churn-light": (
        "ac434a7495447a100f08cbeb185ca4140840dcf29dbe7143b02ef6b4e6467566"
    ),
    "cluster2-failures": (
        "dccff1ce02019e612d12250599257cb67542e7a89cbcf7dbf11699f7582316d2"
    ),
    "cluster2-event": (
        "741564ca40c9bb021047c86c9ab3a33675b8ba8220b3b688358046809a6b956a"
    ),
    "push-churn-light": (
        "19ead4a40ca45c466c39e27cf8be4346f07b0c23a4d4194f9ae1042aeb51ab50"
    ),
    "push-failures": (
        "198ae1f1e021f798cad91f20de4b96ce9fdf280ab546da2a6afa6f1a29c2e61a"
    ),
    "push-event": (
        "44f93c8bc9c50bd3f26da312099eec5513fa28ac1093bf84cc0a5c3d2c513eb7"
    ),
    "pull-churn-light": (
        "aff06c5956d6cde5f14595ed23bbec4e463d61efad564fcea9018ee9aa207ba8"
    ),
    "pull-failures": (
        "2d92bde4896158dd3c04bb1a5e4012d2b126b8c694914d985db6e1fff38cb0b3"
    ),
    "pull-event": (
        "5d13ab763ecb841ab9886711da8097f0476de864100a5e777ee806a4a17af82a"
    ),
    "push-pull-churn-light": (
        "3bc439589790d702cdfadeacb117467c8a80d7d6c302b26cb349adfadbf6de8c"
    ),
    "push-pull-failures": (
        "4dcb4caffcc6fba379842fb5caee858a41d6bd6d60c2c2e5a159af7460a1a0f1"
    ),
    "push-pull-event": (
        "44d159d6d44aa30e1bb07304b98107b4a742e693e613d7693bf460ef10dc21c1"
    ),
}


def records(name: str, kind: str = "event") -> list:
    kwargs = dict(RUNS[name])
    algorithm = kwargs.pop("algorithm")
    telemetry = Telemetry()
    broadcast(N, algorithm, seed=SEED, telemetry=telemetry, **kwargs)
    return [r for r in telemetry.records() if r["type"] == kind]


def case_digest(name: str, kind: str = "event") -> str:
    h = hashlib.sha256()
    for record in records(name, kind):
        h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_event_records_are_pinned(name):
    assert case_digest(name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_series_records_are_pinned(name):
    assert case_digest(name, "series") == SERIES_DIGESTS[name]


def test_every_case_records_events():
    # A digest of nothing would pin nothing.
    for name in RUNS:
        assert records(name, "event"), name
        assert records(name, "series"), name


if __name__ == "__main__":
    for table, kind in (("DIGESTS", "event"), ("SERIES_DIGESTS", "series")):
        print(f"{table} = {{")
        for case in RUNS:
            print(f'    "{case}": (\n        "{case_digest(case, kind)}"\n    ),')
        print("}")
