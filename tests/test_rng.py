"""Unit tests for repro.sim.rng."""

import numpy as np
import pytest

from repro.sim.rng import derive_seed, make_rng, seeds_for, spawn_rngs


class TestMakeRng:
    def test_int_seed_deterministic(self):
        assert make_rng(42).integers(0, 1 << 30) == make_rng(42).integers(0, 1 << 30)

    def test_generator_passthrough(self):
        g = make_rng(1)
        assert make_rng(g) is g

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(5)
        g = make_rng(seq)
        assert isinstance(g, np.random.Generator)

    def test_none_gives_entropy(self):
        # Two unseeded generators virtually never agree.
        a, b = make_rng(None), make_rng(None)
        assert (a.integers(0, 1 << 62, 4) != b.integers(0, 1 << 62, 4)).any()


class TestSpawn:
    def test_children_are_independent_of_draw_order(self):
        kids_a = spawn_rngs(9, 3)
        kids_b = spawn_rngs(9, 3)
        for a, b in zip(kids_a, kids_b):
            assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_children_differ_from_each_other(self):
        kids = spawn_rngs(9, 2)
        assert kids[0].integers(0, 1 << 62) != kids[1].integers(0, 1 << 62)

    def test_spawn_from_generator_consumes_parent(self):
        parent = make_rng(3)
        before = parent.bit_generator.state["state"]["state"]
        spawn_rngs(parent, 2)
        after = parent.bit_generator.state["state"]["state"]
        assert before != after

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []


class TestDerivedSeeds:
    def test_labels_stable(self):
        a = seeds_for(1, ["x", "y"])
        b = seeds_for(1, ["y", "x"])
        assert a["x"] == b["x"] and a["y"] == b["y"]

    def test_labels_distinct(self):
        s = seeds_for(1, ["x", "y"])
        assert s["x"] != s["y"]

    def test_derive_seed_parts(self):
        assert derive_seed(5, "net") == derive_seed(5, "net")
        assert derive_seed(5, "net") != derive_seed(5, "algo")
        assert derive_seed(5, "a", 1) != derive_seed(5, "a", 2)

    def test_base_seed_matters(self):
        assert derive_seed(1, "net") != derive_seed(2, "net")
