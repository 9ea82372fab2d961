"""Bit-for-bit pin of the sequential event tier.

The fingerprint corpus pins rounds, messages and bits, but not
``sim_time``: the event tier's timing overlay could drift without any
test noticing.  This file pins it: per configuration, one sha256 over
``(rounds, messages, bits, repr(sim_time))`` of a seeded
:func:`~repro.core.broadcast.broadcast` run under
``scheduler=EventSchedulerSpec(delay=...)``.  Traced cases also hash
every :class:`~repro.obs.trace.ContactTrace` column plus the critical
path length and dilation; the replication cases hash the per-rep
``sim_time`` stream of ``run_replications(engine="reset")``.  Any change
to the clock fold, to the delay samplers, or to the order and sizes of
their ``"delay"``-stream draws changes a digest.  A deliberate change of
that stream re-records them with::

    PYTHONPATH=src python tests/test_event_pin.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.broadcast import broadcast, run_replications
from repro.sim.schedule import EventSchedulerSpec
from repro.sim.topology import (
    ConstantDelay,
    EdgeWeightedDelay,
    NodeSlowdownDelay,
    RandomRegular,
    RateLimitedEdgeDelay,
    Ring,
    UniformJitterDelay,
)

N = 1024
SEED = 20241017

#: The scalar delay models, valid on every topology.
SCALAR_DELAYS = {
    "zero": ConstantDelay(0.0),
    "unit": ConstantDelay(1.0),
    "const2.5": ConstantDelay(2.5),
    "jitter": UniformJitterDelay(0.5, 2.0),
    "jitter-flat": UniformJitterDelay(1.0, 1.0),
    "straggler": NodeSlowdownDelay(fraction=0.05, factor=10.0),
}
#: The per-edge models, which need a materialised contact graph.
EDGE_DELAYS = {
    "wan": EdgeWeightedDelay(),
    "rate-limited": RateLimitedEdgeDelay(),
}
TOPOLOGIES = {"regular8": RandomRegular(d=8), "ring2": Ring(k=2)}
#: The ring runs were recorded under push-pull's complete-graph cap at
#: n = 1024 (17 rounds) and pin the clock fold, not the cap rule, so
#: they pass that cap explicitly.
TOPOLOGY_KWARGS = {"ring2": {"max_rounds": 17}}

#: name -> keyword arguments of one ``broadcast`` run.
RUNS = {
    **{
        f"{algorithm}-complete-{name}": dict(algorithm=algorithm, delay=delay)
        for algorithm in ("push-pull", "cluster2")
        for name, delay in SCALAR_DELAYS.items()
    },
    **{
        f"push-pull-{top}-{name}": dict(
            algorithm="push-pull",
            delay=delay,
            topology=topology,
            **TOPOLOGY_KWARGS.get(top, {}),
        )
        for top, topology in TOPOLOGIES.items()
        for name, delay in {**SCALAR_DELAYS, **EDGE_DELAYS}.items()
    },
    "push-pull-failures-jitter": dict(
        algorithm="push-pull", delay=SCALAR_DELAYS["jitter"], failures=50
    ),
    # Under a constant delay, the uniform fast path counts alive nodes.
    "push-pull-failures-unit": dict(
        algorithm="push-pull", delay=SCALAR_DELAYS["unit"], failures=50
    ),
    "push-pull-timeline-straggler": dict(
        algorithm="push-pull",
        delay=SCALAR_DELAYS["straggler"],
        schedule="loss:0.02,crash@3:0.1",
    ),
    "push-pull-timeline-unit": dict(
        algorithm="push-pull",
        delay=SCALAR_DELAYS["unit"],
        schedule="loss:0.02,crash@3:0.1",
    ),
    "push-pull-traced-straggler": dict(
        algorithm="push-pull", delay=SCALAR_DELAYS["straggler"], trace=True
    ),
    "cluster2-traced-jitter": dict(
        algorithm="cluster2", delay=SCALAR_DELAYS["jitter"], trace=True
    ),
}

#: name -> delay of a ``run_replications(engine="reset")`` call whose
#: per-rep ``sim_time`` stream is pinned.
REPLICATIONS = {
    "reps-jitter": SCALAR_DELAYS["jitter"],
    "reps-straggler": SCALAR_DELAYS["straggler"],
}

#: sha256 per case, recorded before the sequential event tier became a
#: one-row batched clock overlay (it must not change).
DIGESTS = {
    "push-pull-complete-zero": (
        "1cc6dca884c4374b432af0a8f58a083c9d4958e4c486eab2375354a26c3c8f4f"
    ),
    "push-pull-complete-unit": (
        "5ebb57258bc788d8b40edf6ad30f57afc7da174713448a74f0689230e029457e"
    ),
    "push-pull-complete-const2.5": (
        "6c6510e6e90b2fa0cfcea396ca3690f9d0f07980a5fe170edfd247a376a4ce23"
    ),
    "push-pull-complete-jitter": (
        "0137fb1c8d6044af629c21f25b02a2ee47248570c8cc5c206aaaf27fba922c20"
    ),
    "push-pull-complete-jitter-flat": (
        "5ebb57258bc788d8b40edf6ad30f57afc7da174713448a74f0689230e029457e"
    ),
    "push-pull-complete-straggler": (
        "600db40af102d496e61569453e672196c3e861e0c6106c645120cb6ce42118dd"
    ),
    "cluster2-complete-zero": (
        "20809abfc09cd57cd7fcc2d44b1c2c3718b0e56dcc0050d944fc50dd3d88c2c1"
    ),
    "cluster2-complete-unit": (
        "fd2a1229e3177acb26df653a6c84bef29f8c855f916ce26348360f55ddebaeae"
    ),
    "cluster2-complete-const2.5": (
        "9f222a7764b5d261c53d03b4939fc46b377cf24cc6a29a8391aa41c8c5fca92d"
    ),
    "cluster2-complete-jitter": (
        "acbee8f99d0ba2ff3fce1ed657c3448e2691211434425c561686a7d737ef7f76"
    ),
    "cluster2-complete-jitter-flat": (
        "fd2a1229e3177acb26df653a6c84bef29f8c855f916ce26348360f55ddebaeae"
    ),
    "cluster2-complete-straggler": (
        "487696cf3fe9a2002a38f48b271a892fc6aa55341ef942158ad4eaf3ab62b525"
    ),
    "push-pull-regular8-zero": (
        "7604cf19dd345a48eb79601e6c7e8d3c106f944a1de8972771fff43e86da29bd"
    ),
    "push-pull-regular8-unit": (
        "7268d611713ec507e26e254403961d65731b7936b070f8c77af5512ac3d0cae3"
    ),
    "push-pull-regular8-const2.5": (
        "6859c8f7c952a8d5975d4446f766fe5fc7b3266ae62b68b11ae570c7839d09d1"
    ),
    "push-pull-regular8-jitter": (
        "b536bc837291664cd2d03319488fbc346bc9aefb0bcceb07b8441b716f7c6094"
    ),
    "push-pull-regular8-jitter-flat": (
        "7268d611713ec507e26e254403961d65731b7936b070f8c77af5512ac3d0cae3"
    ),
    "push-pull-regular8-straggler": (
        "2ccbdfdbb788101802daa8eecbf277f42834a5379b4a6bfd62bffc4412e25c9c"
    ),
    "push-pull-regular8-wan": (
        "c2e61b8a3f393046f543cb098eb2969d5b2cff4405f17846625e96c6edf39ac0"
    ),
    "push-pull-regular8-rate-limited": (
        "18be68a50ca267fdb8ba4cceef721e8b09f8a4f7f5bb4419aa38eeec3a96f91d"
    ),
    "push-pull-ring2-zero": (
        "99244a06c12248889dc9d9312fe316d50bb48064cf033d3793bfd7a5cb49a9b2"
    ),
    "push-pull-ring2-unit": (
        "bab0a0c0443c6c89c4d70e445ee706e4031a8c27ced8470863284cf248a7403a"
    ),
    "push-pull-ring2-const2.5": (
        "aac27cfb369706986203e275827a85c5a75a50f1ad2c15f60fc43b1b95fd3718"
    ),
    "push-pull-ring2-jitter": (
        "dfdff2d10247b72d6f53d99b3ff5793c9927f08868c7169aa73b431e68f3dc23"
    ),
    "push-pull-ring2-jitter-flat": (
        "bab0a0c0443c6c89c4d70e445ee706e4031a8c27ced8470863284cf248a7403a"
    ),
    "push-pull-ring2-straggler": (
        "6c94bb1702c1480a73016ec070c0e2fcdbf1d6e74f8dbc443e7434625397abff"
    ),
    "push-pull-ring2-wan": (
        "ec966c092459bd559ff61fcc9056c49cc707a4bceabe3612883183ae183f0f5a"
    ),
    "push-pull-ring2-rate-limited": (
        "4f819269df3b7462251ab0bab3cc76785842e4051c67153e123f1d5df96ac061"
    ),
    "push-pull-failures-jitter": (
        "4863a1902622244967e3c19c20bb0d7585d14a704a50040fc8a60965f2a6f911"
    ),
    "push-pull-failures-unit": (
        "b30cdaaeabd85c6166c34ebd079fa895ae53dcb16cf5cefe9acffd2aef8c404c"
    ),
    "push-pull-timeline-straggler": (
        "22293cd568eab9ee9bae919c7dd027b61da67daea348a369ac0416f81185ec2b"
    ),
    "push-pull-timeline-unit": (
        "08ebfc31442b844b1cbd319c5e2efb1903945e4da5054d3d871a17df1663385b"
    ),
    "push-pull-traced-straggler": (
        "eed651cfff82d7cdc6bb03b45be62a053b70b58d3be2aa388c9dda8a1dc2c6ed"
    ),
    "cluster2-traced-jitter": (
        "2daca804edaf7f4127f3dc98190327ef3f7cc92a5197a8b2b7b4bc8217094a04"
    ),
    "reps-jitter": (
        "5243d4f8e75b3ff0a492a6ee677a58c60d423037dc764d2e9cf6f16e868d8683"
    ),
    "reps-straggler": (
        "2b488fd2e1cf8a58b363c0e797f3471ee4a81484b2db7a54b79351750975abc3"
    ),
}


def run_digest(name: str) -> str:
    kwargs = dict(RUNS[name])
    algorithm = kwargs.pop("algorithm")
    delay = kwargs.pop("delay")
    traced = kwargs.pop("trace", False)
    report = broadcast(
        N,
        algorithm,
        seed=SEED,
        scheduler=EventSchedulerSpec(delay=delay, trace=traced),
        **kwargs,
    )
    h = hashlib.sha256()
    h.update(
        repr(
            (report.rounds, report.messages, report.bits, report.extras["sim_time"])
        ).encode()
    )
    if traced:
        columns = report.extras["contact_trace"].columns()
        for key in sorted(columns):
            h.update(key.encode())
            h.update(np.ascontiguousarray(columns[key]).tobytes())
        h.update(
            repr(
                (report.extras["critical_path_len"], report.extras["dilation"])
            ).encode()
        )
    return h.hexdigest()


def replication_digest(name: str) -> str:
    rows = []
    run_replications(
        N,
        "push-pull",
        reps=6,
        base_seed=SEED,
        engine="reset",
        scheduler=EventSchedulerSpec(delay=REPLICATIONS[name]),
        consume=rows.append,
    )
    h = hashlib.sha256()
    for row in rows:
        h.update(
            repr(
                (
                    row["rounds"],
                    row["messages_per_node"],
                    row["bits_per_node"],
                    row["sim_time"],
                )
            ).encode()
        )
    return h.hexdigest()


def case_digest(name: str) -> str:
    if name in REPLICATIONS:
        return replication_digest(name)
    return run_digest(name)


@pytest.mark.parametrize("name", sorted(RUNS) + sorted(REPLICATIONS))
def test_event_tier_outputs_are_pinned(name):
    assert case_digest(name) == DIGESTS[name]


if __name__ == "__main__":
    for case in [*RUNS, *REPLICATIONS]:
        print(f'    "{case}": (\n        "{case_digest(case)}"\n    ),')
