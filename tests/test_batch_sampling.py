"""Sampling contract of :meth:`ContactGraph.sample_contacts_batch`.

The batched draw is the one contact sampler on restricted topologies:
the vector executors call it directly, and the 1-D
:meth:`sample_contacts` is its one-row case.  Every row obeys the same
contract: every draw is uniform over the caller's alive neighborhood,
never the caller itself, and ``-1`` exactly when the caller has no
alive neighbor — for a structural draw (``alive=None``) and a shared
``(n,)`` mask alike.

A graph with no isolated node records so (``ContactGraph.no_void``):
its structural draws never return ``-1``, so the vector tier's round
loop takes the complete graph's unmasked path on it.  That path must
give the masked path's outcome bit for bit, and a graph with an
isolated node must keep charging that node's void push.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.push_pull import batched_push_pull
from repro.sim.rng import make_rng
from repro.sim.schedule import EventSchedulerSpec, make_batch_overlay
from repro.sim.topology import (
    ContactGraph,
    ErdosRenyiGnp,
    NodeSlowdownDelay,
    RandomRegular,
    Ring,
    Torus2D,
    _csr_from_edges,
)

N = 64

topologies = st.one_of(
    st.integers(min_value=1, max_value=4).map(lambda k: Ring(k=k)),
    st.just(Torus2D()),
    st.sampled_from([4, 6, 8]).map(lambda d: RandomRegular(d=d)),
    st.floats(min_value=0.05, max_value=0.3).map(lambda p: ErdosRenyiGnp(p=p)),
)


def _assert_contract(graph, callers, targets, alive_row):
    """One row of the batch obeys the sampling contract."""
    has = graph.alive_degree(callers, alive_row) > 0
    assert ((targets == -1) == ~has).all()
    hit = targets >= 0
    assert alive_row[targets[hit]].all()
    assert graph.reachable(callers[hit], targets[hit]).all()
    assert (targets[hit] != callers[hit]).all()


class TestBatchSamplingContract:
    @given(
        spec=topologies,
        seed=st.integers(min_value=0, max_value=2**20),
        dead_fraction=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_shared_mask_rows_obey_contract(self, spec, seed, dead_fraction):
        graph = spec.bind(N, make_rng(seed))
        rng = make_rng(seed + 1)
        alive = rng.random(N) >= dead_fraction
        callers = np.flatnonzero(alive)
        if len(callers) == 0:
            return
        reps = 5
        targets = graph.sample_contacts_batch(reps, callers, rng, alive=alive)
        assert targets.shape == (reps, len(callers))
        for row in targets:
            _assert_contract(graph, callers, row, alive)

    @given(spec=topologies, seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=40, deadline=None)
    def test_structural_draw_matches_all_alive(self, spec, seed):
        # alive=None is the structural draw: never -1 on these connected-
        # by-construction graphs, always an edge, never the caller.
        graph = spec.bind(N, make_rng(seed))
        callers = np.arange(N)
        targets = graph.sample_contacts_batch(3, callers, make_rng(seed + 1))
        assert (targets >= 0).all() or (graph.degrees == 0).any()
        assert graph.no_void == bool((graph.degrees > 0).all())
        if graph.no_void:
            assert (targets >= 0).all()
        hit = targets >= 0
        rows, cols = np.nonzero(hit)
        assert graph.reachable(callers[cols], targets[rows, cols]).all()
        assert (targets[hit] != np.broadcast_to(callers, targets.shape)[hit]).all()

    def test_batch_rows_match_sequential_draws_statistically(self):
        # Every neighbor of a fixed caller is hit across many rows —
        # the batched draw spans the whole neighborhood, not a slice.
        graph = Ring(k=3).bind(N, make_rng(0))
        caller = np.array([10])
        targets = graph.sample_contacts_batch(400, caller, make_rng(1))
        assert set(np.unique(targets)) == set(graph.neighbors(10))


class TestVoidFreeRounds:
    def test_isolated_node_push_is_charged_never_delivered(self):
        # A 5-cycle on nodes 0-4 and an isolated node 5 as the source:
        # each round its push goes to the void (charged, undelivered)
        # and no neighbor can pull from it.
        n, reps, rounds = 6, 3, 7
        u = np.arange(5)
        graph = ContactGraph("cycle+isolated", n, *_csr_from_edges(n, u, (u + 1) % 5))
        assert not graph.no_void
        out = batched_push_pull(
            n, reps, make_rng(0), source=5, max_rounds=rounds, graph=graph,
            message_bits=16,
        )
        assert (out.rounds == rounds).all()
        assert (out.messages == rounds).all()
        assert (out.bits == rounds * 16).all()
        assert (out.informed_counts == 1).all() and not out.success.any()

    @pytest.mark.parametrize(
        "delay", [None, NodeSlowdownDelay(base=1.0, fraction=0.02, factor=10.0)]
    )
    def test_unmasked_path_equals_masked_path(self, monkeypatch, delay):
        # RandomRegular(d=8) has no isolated node: its rounds skip the
        # validity mask, which must change nothing, clock overlay included.
        n, reps, seed = 1000, 4, 11
        spec = RandomRegular(d=8)

        def run(no_void: bool):
            graph = spec.bind(n, make_rng(seed))
            assert graph.no_void
            if not no_void:
                monkeypatch.setattr(graph, "no_void", False)
            overlay = None
            if delay is not None:
                overlay = make_batch_overlay(
                    EventSchedulerSpec(delay=delay), spec, n, reps, graph,
                    base_seed=seed, first_rep=0,
                )
            return batched_push_pull(
                n, reps, make_rng(seed + 1), graph=graph, overlay=overlay
            )

        unmasked, masked = run(True), run(False)
        for field in dataclasses.fields(unmasked):
            a, b = getattr(unmasked, field.name), getattr(masked, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            else:
                assert a == b, field.name
