"""Sampling contract of :meth:`ContactGraph.sample_contacts_batch`.

The batched draw is the one contact sampler on restricted topologies:
the vector executors call it directly, and the 1-D
:meth:`sample_contacts` is its one-row case.  Every row obeys the same
contract: every draw is uniform over the caller's alive neighborhood,
never the caller itself, and ``-1`` exactly when the caller has no
alive neighbor — for a structural draw (``alive=None``) and a shared
``(n,)`` mask alike.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import make_rng
from repro.sim.topology import ErdosRenyiGnp, RandomRegular, Ring, Torus2D

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
