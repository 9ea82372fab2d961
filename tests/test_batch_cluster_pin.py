"""Bit-for-bit pin of the vector engine's outputs.

The vector runners draw a different RNG stream than the sequential
engines, so the fingerprint corpus cannot pin them, and
``test_batch_cluster.py`` and ``test_event_vector.py`` check only
distributions.  This file pins them: per configuration, one sha256 over
the runner's :class:`~repro.sim.batch.BatchOutcome`.  The cluster cases
hash ``rounds``, ``messages``, ``bits``, ``max_fanin``,
``informed_counts`` and ``success`` (plus ``sim_time`` under a clock
overlay), the fields they were first recorded with; the push-pull and
task cases hash every field, ``completion_round``, ``sim_time`` and
``task_error`` included.  The task cases cover no overlay and a
constant delay as well as jittered ones; random sources, a single
rumor, round caps that stop some replications short, and a zero cap
are pinned too.  A second table pins the telemetry series a chunk
records (every column and row of ``series.to_columns()``) for
push-pull, push-sum, cluster1 and cluster2 at two probe intervals.

Any change to what the batched primitives or the clock overlay
compute, or to the order and sizes of their RNG draws, changes a
digest.  The cases were recorded before the vector runners shared one
accounting ledger and the uniform ones one round loop.  Since then
only two sets moved: the two cluster1 series digests, when a
ClusterMerge round in which nothing merges became a sampled idle round,
and the push-sum outcome and series digests, when the task runners
began to drive the shared task states, whose push-sum merge adds with
``np.add.at`` (the sums differ in their last bits; rounds, messages,
bits, fan-in and completion did not move).  A deliberate change of the
stream re-records them with::

    PYTHONPATH=src python tests/test_batch_cluster_pin.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.baselines.push_pull import batched_push_pull
from repro.obs import Telemetry
from repro.sim.batch_cluster import batched_cluster1, batched_cluster2
from repro.sim.buffers import BufferPool
from repro.sim.rng import derive_seed, make_rng
from repro.sim.schedule import EventSchedulerSpec, make_batch_overlay
from repro.sim.topology import (
    ConstantDelay,
    EdgeWeightedDelay,
    ErdosRenyiGnp,
    NodeSlowdownDelay,
    RandomRegular,
    Ring,
    UniformJitterDelay,
    resolve_topology,
)
from repro.tasks.state import ExtremeState, KRumorState, PushSumState
from repro.tasks.transports import uniform_batch_runner

RUNNERS = {
    "cluster1": batched_cluster1,
    "cluster2": batched_cluster2,
    "push-pull": batched_push_pull,
    "push-sum": uniform_batch_runner(PushSumState),
    "min-max": uniform_batch_runner(ExtremeState),
    "k-rumor": uniform_batch_runner(KRumorState),
}
#: Runner keyword arguments beyond the shared ones.
RUNNER_KWARGS = {"k-rumor": {"k": 4}}
#: Runners whose digests cover only the six headline fields.
HEADLINE_ONLY = ("cluster1", "cluster2")
STRAGGLER = NodeSlowdownDelay(base=1.0, fraction=0.02, factor=10.0)
JITTER = UniformJitterDelay(0.5, 1.5)
CONSTANT = ConstantDelay(1.0)
WAN = EdgeWeightedDelay()
REGULAR8 = RandomRegular(d=8)
# Mean degree 2 at n = 1000: about one node in eight is isolated and
# draws the void ``-1`` contact.
SPARSE_GNP = ErdosRenyiGnp(p=0.002)
SEED = 20240611

#: (algorithm or task, n, reps, topology, clock-overlay delay model)
CASES = {
    # n=1000: the non-power-of-two row/column split.
    "cluster1-complete-1000x5": ("cluster1", 1000, 5, None, None),
    "cluster2-complete-1000x5": ("cluster2", 1000, 5, None, None),
    # R=16: replications diverge, so cluster2's grow and resize rounds
    # run on subsets of the batch (the n=1000 and straggler cases also
    # pull on subsets).
    "cluster1-complete-4096x16": ("cluster1", 4096, 16, None, None),
    "cluster2-complete-4096x16": ("cluster2", 4096, 16, None, None),
    "cluster1-complete-65536x1": ("cluster1", 2**16, 1, None, None),
    "cluster2-complete-65536x1": ("cluster2", 2**16, 1, None, None),
    "cluster2-regular8-1000x5": ("cluster2", 1000, 5, REGULAR8, None),
    "cluster2-ring2-1000x5": ("cluster2", 1000, 5, Ring(k=2), None),
    "cluster2-gnp-1000x5": ("cluster2", 1000, 5, ErdosRenyiGnp(), None),
    "cluster1-straggler-4096x8": ("cluster1", 4096, 8, None, STRAGGLER),
    "cluster2-straggler-4096x8": ("cluster2", 4096, 8, None, STRAGGLER),
    # Push-pull on three graphs, without an overlay and under the three
    # scalar delay models; every round folds through the overlay's
    # full round, and the sparse G(n, p) folds void contacts too.
    **{
        f"push-pull-{graph}{'-' + delay if delay else ''}-1000x5": (
            "push-pull",
            1000,
            5,
            topology,
            model,
        )
        for graph, topology in (
            ("complete", None),
            ("regular8", REGULAR8),
            ("gnp", SPARSE_GNP),
        )
        for delay, model in (
            ("", None),
            ("straggler", STRAGGLER),
            ("jitter", JITTER),
            ("constant", CONSTANT),
        )
    },
    # Per-edge weights: the bound delay's base-class full round.
    "push-pull-regular8-wan-1000x5": ("push-pull", 1000, 5, REGULAR8, WAN),
    # The benchmark's shape: one 2^16-element chunk of the straggler
    # workload.
    "push-pull-complete-straggler-16384x4": ("push-pull", 2**14, 4, None, STRAGGLER),
    # The task runners freeze finished replications, so their full
    # rounds run on shrinking row sets.
    **{
        f"{task}-{delay}-1000x5": (task, 1000, 5, None, model)
        for task in ("push-sum", "min-max", "k-rumor")
        for delay, model in (("straggler", STRAGGLER), ("jitter", JITTER))
    },
    # The task runners without an overlay (the path ``engine="vector"``
    # takes without ``scheduler=``), and under a constant delay, whose
    # rows stay uniform while the row sets shrink.
    **{
        f"{task}{'-' + delay if delay else ''}-1000x5": (task, 1000, 5, None, model)
        for task in ("push-sum", "min-max", "k-rumor")
        for delay, model in (("", None), ("constant", CONSTANT))
    },
    # Per-case keyword arguments (``CASE_KWARGS``): random sources, a
    # single rumor, round caps.
    "push-pull-complete-random-source-1000x5": ("push-pull", 1000, 5, None, None),
    "k-rumor-random-source-1000x5": ("k-rumor", 1000, 5, None, None),
    "k-rumor-k1-1000x5": ("k-rumor", 1000, 5, None, None),
    "push-pull-complete-cap9-1000x16": ("push-pull", 1000, 16, None, None),
    "push-sum-cap27-1000x5": ("push-sum", 1000, 5, None, None),
    "min-max-cap18-1000x5": ("min-max", 1000, 5, None, None),
    "k-rumor-cap17-1000x5": ("k-rumor", 1000, 5, None, None),
    **{
        f"{algorithm}-cap0-1000x5": (algorithm, 1000, 5, None, None)
        for algorithm in ("push-pull", "push-sum", "min-max", "k-rumor")
    },
}

#: Keyword arguments of single cases, over ``RUNNER_KWARGS``.  Each capped
#: case stops some replications before they finish (``completion_round
#: == -1``) and lets the others finish; a zero cap runs no round.
CASE_KWARGS = {
    "push-pull-complete-random-source-1000x5": {"source": None},
    "k-rumor-random-source-1000x5": {"source": None},
    # One rumor: no extra-source draw.
    "k-rumor-k1-1000x5": {"k": 1},
    "push-pull-complete-cap9-1000x16": {"max_rounds": 9},
    "push-sum-cap27-1000x5": {"max_rounds": 27},
    "min-max-cap18-1000x5": {"max_rounds": 18},
    "k-rumor-cap17-1000x5": {"max_rounds": 17},
    **{
        f"{algorithm}-cap0-1000x5": {"max_rounds": 0}
        for algorithm in ("push-pull", "push-sum", "min-max", "k-rumor")
    },
    # The sparse G(n, p) cases were recorded under push-pull's
    # complete-graph cap at n = 1000 (17 rounds); they pin the void
    # draws and the fold, not the cap rule, so they pass that cap.
    **{
        f"push-pull-gnp{'-' + delay if delay else ''}-1000x5": {"max_rounds": 17}
        for delay in ("", "straggler", "jitter", "constant")
    },
}

#: sha256 per case.  The cluster digests were recorded before the
#: batched primitives were rewritten to make fewer array passes, the
#: push-pull and task digests before the clock overlay's full round
#: reused its scratch buffers (neither change may move them).
DIGESTS = {
    "cluster1-complete-1000x5": (
        "7ba6af776474f49afc984e167b173511c3b6fbf4ecd85a9b67b98b80bba17630"
    ),
    "cluster2-complete-1000x5": (
        "d7423eadd392d57ec0d0d6163d9f5b817a894f3a7061c47e59c19969390b10a0"
    ),
    "cluster1-complete-4096x16": (
        "41e2ca366f4a815d929ce1a2ec2bef922faab91322cd2a372d13854acdf86fcf"
    ),
    "cluster2-complete-4096x16": (
        "db07502c8ae837670a0c0ad025810efb0b4da0f809c7c5a9d1a8685bd4ba11b3"
    ),
    "cluster1-complete-65536x1": (
        "a4da9cf342259bb2c38ae6dfd5c05081adf6b8d9d161f1b34f8b8b8e6aef4db0"
    ),
    "cluster2-complete-65536x1": (
        "6c5f22fc04ed5dd796e83b36536527669d197ef5bd05cea8e27587c0c7fea355"
    ),
    "cluster2-regular8-1000x5": (
        "b706f708d0bcb521e942339545a902720aebc49972818fcf72b85c6c3025f860"
    ),
    "cluster2-ring2-1000x5": (
        "a81c59d077b3d289aee457c7267a70a96f219bea9f283834ef8a923f776af43a"
    ),
    "cluster2-gnp-1000x5": (
        "93db6601883f916c6a92fd1719452d3b86ed5feb5ad5cc7a7212bdb95a42ab59"
    ),
    "cluster1-straggler-4096x8": (
        "bf25cb04f51470d2fdf2a93b24f0a65ae228e239c818b0e955d53a9e84673b06"
    ),
    "cluster2-straggler-4096x8": (
        "bf8acd53e3d8cdbc6c699ccb8b1e0001d4346946b2c88c104f1707bac966b4dd"
    ),
    "push-pull-complete-1000x5": (
        "9de0876ffe27ddfbeaa19fa3d69888e757e5abd2c23e005f11b316b063a67078"
    ),
    "push-pull-complete-straggler-1000x5": (
        "75e45956606cccf7ef6911853ca2f76053c43f297287874ffb7a7fe865fb3739"
    ),
    "push-pull-complete-jitter-1000x5": (
        "2d4d796edaa66aa37771bb4c37548c6bbf18657ada9d5c99be9434e65a830ddc"
    ),
    "push-pull-complete-constant-1000x5": (
        "db086975cc4c2c30b9780c309cbbfc64b023f2014e137cde414f81cba81cfcf4"
    ),
    "push-pull-regular8-1000x5": (
        "55227478bebfad5f66abe9faccb4d7d792e9cd981193a6d6deb72dce82133e58"
    ),
    "push-pull-regular8-straggler-1000x5": (
        "9c4e3a4218dae3e4162f8856a16a598cc241473d79dededa0d78ca15cf3f8253"
    ),
    "push-pull-regular8-jitter-1000x5": (
        "7dd969cef8a20f5b45ed34fb0f77181bb855f7dcdd2e3da0274e95054e67cc52"
    ),
    "push-pull-regular8-constant-1000x5": (
        "731950f322c677720770b9496421d6850953634675554c0331b1e86aaaa2d264"
    ),
    "push-pull-gnp-1000x5": (
        "ac6ccdeb21a9caf6e386e7181793bdae73c5b0ca1317fd6cf7fbfe74bc5bac01"
    ),
    "push-pull-gnp-straggler-1000x5": (
        "b150295351d2720d2f9859b9c889823901144804feaf5a05322d8cd60012d4c4"
    ),
    "push-pull-gnp-jitter-1000x5": (
        "57608a36b696fe61aa08b448605a865d764015f55fbbd73a0e32c7aa77eed365"
    ),
    "push-pull-gnp-constant-1000x5": (
        "d1609fc80d05de5d65d6369ebdb266500c2bb4fb0f0f5214cfea6b092596a802"
    ),
    "push-pull-regular8-wan-1000x5": (
        "768730bfe9d76ac551bc9c730d2fbb84f2b58dca13b1516718976d9382d0768e"
    ),
    "push-pull-complete-straggler-16384x4": (
        "fddf41703b80a57df96369787944ef4ea359e7d4bd684205920bddcfbb2098b2"
    ),
    "push-sum-straggler-1000x5": (
        "77d4ceb34a94503895d2f37560657d790366ae2569c7226c13d58028d120a39e"
    ),
    "push-sum-jitter-1000x5": (
        "d70bc5ab00102b72b5f6ca5a63ca5662e92abdc8afd9adda0ace12975b99fdd6"
    ),
    "min-max-straggler-1000x5": (
        "e12ad3f395d9a94a8a7580c0e519d7b5db94242f409c7f59249c9d352214db33"
    ),
    "min-max-jitter-1000x5": (
        "137b205a0702bb2daefec0a6f37ce1e583b2d91e4555a01b3d9bb4cd840ad958"
    ),
    "k-rumor-straggler-1000x5": (
        "31bd94bd16492c04356d80209ab57a97151c6d6935a223982ef71decc6265b13"
    ),
    "k-rumor-jitter-1000x5": (
        "db260f70d06b0b0eddfcdb4fa040624e1fdefc41fb1371fc68889cad17b6c282"
    ),
    "push-sum-1000x5": (
        "ddb2d7f494f3b85c1338859ee7d191dc79082f3e41407b8841026cb78b88df61"
    ),
    "push-sum-constant-1000x5": (
        "acb8188d4ee26029f4cf2e412b41600323a09c2ee26667234a68a203fce4fc2f"
    ),
    "min-max-1000x5": (
        "35d6cc047389bd6c048a24604b1c6c6ea346d1ce66f308f2706b6b2c69383a5e"
    ),
    "min-max-constant-1000x5": (
        "2e48a2df3df762070712b254977aab26c50523a985076e15bada9bfd39e5b2b8"
    ),
    "k-rumor-1000x5": (
        "2a2adef8906a10f248d25241a2665acfdbab30cf4570356671026ec9276ab14e"
    ),
    "k-rumor-constant-1000x5": (
        "4abc34094d850a220ca6b1cf2088ab8ce17d7ffdc8d43f1866cc8f14c9febc09"
    ),
    "push-pull-complete-random-source-1000x5": (
        "3dd860206154b0287fb7571d43561d67d9f0814aa99656dee9787b77dab18aee"
    ),
    "k-rumor-random-source-1000x5": (
        "e5fb9e44e6652c538a84afac92a70ab00a5bb36529dfdd13271c7495474f50b8"
    ),
    "k-rumor-k1-1000x5": (
        "6cad3729d4f1da3a6f09802c6c809cc44e16c710f8033b36c71284671fd286e2"
    ),
    "push-pull-complete-cap9-1000x16": (
        "7e1244f3975f1267646e907a77764b8ebadb62024b54bb3767b52cb4e9708577"
    ),
    "push-sum-cap27-1000x5": (
        "eefccb763b81aac0ce79ea428ec0d6660f48ae9842400e627f73a9e000d2d8e1"
    ),
    "min-max-cap18-1000x5": (
        "693d7c61e4dc7c8c7a0744b349d76dc3ec08e0d2254cda326cbc4f94d5ea743e"
    ),
    "k-rumor-cap17-1000x5": (
        "2ac94cc784f7c675ec475d279a4498272fa4a177c704f8c835769d26bcdeabe4"
    ),
    "push-pull-cap0-1000x5": (
        "ed6c3b5f0c5b4632da7e9fcfc2ace361ea654cdab3f99b85ac9a04771298011f"
    ),
    "push-sum-cap0-1000x5": (
        "64b48b2126e86da93b6e4656b5c6ae83362134222528ebe184149d8926c7c707"
    ),
    "min-max-cap0-1000x5": (
        "f1b1172dd4e639fd5dc44a68a74757f22cce4e2cb433c35020de0917258af217"
    ),
    "k-rumor-cap0-1000x5": (
        "b8dee58d250f1f26373c4eaaa600da5e7df8341910ef95e506c83ff1544c8498"
    ),
}


def run_case(name: str, telemetry=None):
    """The case's :class:`~repro.sim.batch.BatchOutcome` (``telemetry``,
    a run handle, records the chunk's series)."""
    algorithm, n, reps, topology, delay = CASES[name]
    kwargs = {**RUNNER_KWARGS.get(algorithm, {}), **CASE_KWARGS.get(name, {})}
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    graph = None
    if topology is not None:
        graph = topology.bind(n, make_rng(derive_seed(SEED, "net")))
        kwargs["graph"] = graph
    if delay is not None:
        kwargs["overlay"] = make_batch_overlay(
            EventSchedulerSpec(delay=delay),
            resolve_topology(topology),
            n,
            reps,
            graph,
            base_seed=SEED,
            first_rep=0,
        )
    return RUNNERS[algorithm](n, reps, make_rng(SEED), **kwargs)


def case_digest(name: str) -> str:
    algorithm, _n, _reps, _topology, delay = CASES[name]
    out = run_case(name)
    h = hashlib.sha256()
    if algorithm in HEADLINE_ONLY:
        fields = [
            out.rounds,
            out.messages,
            out.bits,
            out.max_fanin,
            out.informed_counts,
            out.success,
        ]
        if delay is not None:
            fields.append(out.sim_time)
        for arr in fields:
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()
    for field in dataclasses.fields(out):
        value = getattr(out, field.name)
        h.update(field.name.encode())
        if isinstance(value, np.ndarray):
            h.update(value.dtype.str.encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_vector_cluster_outputs_are_pinned(name):
    assert case_digest(name) == DIGESTS[name]


#: Cases whose rounds fold through the clock overlay's full round on its
#: general path (a constant delay keeps the rows uniform and never
#: touches the overlay's workspace).
WORKSPACE_CASES = sorted(
    name
    for name, (algorithm, _n, _reps, _topology, delay) in CASES.items()
    if algorithm not in HEADLINE_ONLY and delay not in (None, CONSTANT)
)


@pytest.mark.parametrize("name", WORKSPACE_CASES)
def test_poisoned_overlay_workspace_changes_nothing(name, monkeypatch):
    """The overlay's workspace views are fully written before they are
    read: with every view filled with a sentinel as it is handed out, a
    full round that read a pooled byte it did not write that round
    would move the digest.  Integer views get an out-of-range node
    index; float views get NaN, which survives the clock fold's maxima
    (a large negative fill would not)."""
    take = BufferPool.take
    calls = []

    def poisoned_take(self, buffer, size, dtype=np.int64):
        view = take(self, buffer, size, dtype)
        view.fill(np.nan if view.dtype.kind == "f" else -(2**31) + 1)
        calls.append(buffer)
        return view

    monkeypatch.setattr(BufferPool, "take", poisoned_take)
    assert case_digest(name) == DIGESTS[name]
    assert "complete" in calls


#: (case, probe_every) of each pinned telemetry series: the runner's
#: chunk series, every column and row, at a dense and a sparse probe.
SERIES_CASES = {
    f"{case}-probe{probe_every}": (case, probe_every)
    for case in (
        "push-pull-complete-1000x5",
        "push-pull-regular8-1000x5",
        "push-pull-complete-straggler-1000x5",
        "push-sum-1000x5",
        "push-sum-straggler-1000x5",
        "cluster1-complete-1000x5",
        "cluster2-complete-1000x5",
        "cluster2-straggler-4096x8",
    )
    for probe_every in (1, 3)
}

#: sha256 of ``json.dumps(series.to_columns())`` per series case.  The
#: cluster1 digests were re-recorded when the no-merge ClusterMerge round
#: began to be sampled (its rows gained the round that was skipped).
SERIES_DIGESTS = {
    "push-pull-complete-1000x5-probe1": (
        "493f9a913849598b46e226e6bcd6dc009eebd9f3985db49be34d641a7e267633"
    ),
    "push-pull-complete-1000x5-probe3": (
        "d9445994cb6dd659954d51139226318433d4819ef19694118f9852e770d75b0b"
    ),
    "push-pull-regular8-1000x5-probe1": (
        "f7fb7a6c8c1cd9e7f4484a556d564c6f8848235b5a91322496a29c9d71070c49"
    ),
    "push-pull-regular8-1000x5-probe3": (
        "ff41572a132824e528e5ad1ea76b7bf8db5cc5f1191229a60a11e8317d931624"
    ),
    "push-pull-complete-straggler-1000x5-probe1": (
        "fc100a9f0173ad465b454709ff522f12259742c807e5b5f3de372c3fe7b8606d"
    ),
    "push-pull-complete-straggler-1000x5-probe3": (
        "9232576ada444b6637138f654dbcc20868cedf2a4b3c1643753c03fa1c979823"
    ),
    "push-sum-1000x5-probe1": (
        "29f5ee306a8015b45006c96b55d9a5c5863a4913223771d14aa96319eb3841e5"
    ),
    "push-sum-1000x5-probe3": (
        "f85d57509112d15b8eaf5817d3ee22c7f6b1e624ba28993efbd3ce6d5d0f041c"
    ),
    "push-sum-straggler-1000x5-probe1": (
        "6f2b6db4b37e74af1679c25e24004bddb47e6482e2c20a6372ea7122176d3a60"
    ),
    "push-sum-straggler-1000x5-probe3": (
        "aed6b82354edc201bfc3c6a0b218f3595dcdfcb5542f38551171371ab6fc26bb"
    ),
    "cluster1-complete-1000x5-probe1": (
        "4a9b5feb18520be48549d3f9b0cda129bc543c258e176cc951175e0335b834a4"
    ),
    "cluster1-complete-1000x5-probe3": (
        "2412c9140c6e69a369bc188d5a652457e155a1a84e417131a537f5b0466d3735"
    ),
    "cluster2-complete-1000x5-probe1": (
        "1649d19f35b969d62c1388f52d5bf9977bd6a92c114efb8a0d8d2812fcbeceff"
    ),
    "cluster2-complete-1000x5-probe3": (
        "fb23ff6cd3e97d5a91b47b9bb8be9b9b0fa16c77aa79f0be570b474b0457c20e"
    ),
    "cluster2-straggler-4096x8-probe1": (
        "e2e984e08222a573a906362ffaba327d4f14c15f28cf97ab670aa37a12aa6e59"
    ),
    "cluster2-straggler-4096x8-probe3": (
        "d6b487456822dafdf20c87f20cf25f168e9bef9c2db2966854a589194106d315"
    ),
}


def series_digest(name: str) -> str:
    case, probe_every = SERIES_CASES[name]
    run = Telemetry(probe_every=probe_every).begin_run({})
    run_case(case, telemetry=run)
    columns = json.dumps(run.series.to_columns())
    return hashlib.sha256(columns.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SERIES_CASES))
def test_vector_telemetry_series_are_pinned(name):
    assert series_digest(name) == SERIES_DIGESTS[name]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{case}": (\n        "{case_digest(case)}"\n    ),')
    print()
    for case in SERIES_CASES:
        print(f'    "{case}": (\n        "{series_digest(case)}"\n    ),')
