"""Tests for the first-class algorithm registry."""

import pytest

from repro.core.result import AlgorithmReport
from repro.registry import (
    AlgorithmSpec,
    DuplicateAlgorithmError,
    UnknownAlgorithmError,
    algorithm_names,
    algorithm_specs,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
)


class TestCatalogue:
    def test_builtins_registered(self):
        names = algorithm_names()
        assert names == sorted(names)
        for expected in (
            "cluster1",
            "cluster2",
            "cluster3",
            "push",
            "pull",
            "push-pull",
            "median-counter",
            "avin-elsasser",
        ):
            assert expected in names

    def test_name_dropper_catalogued_not_broadcastable(self):
        assert "name-dropper" not in algorithm_names()
        assert "name-dropper" in algorithm_names(broadcastable_only=False)
        spec = get_algorithm("name-dropper")
        assert spec.category == "discovery" and not spec.broadcastable

    def test_specs_carry_metadata(self):
        for spec in algorithm_specs():
            assert spec.category in ("core", "baseline", "discovery")
            assert spec.doc, f"{spec.name} has no doc line"
        assert get_algorithm("cluster2").category == "core"
        assert get_algorithm("push").category == "baseline"
        assert "delta" in get_algorithm("cluster3").kwargs

    def test_unknown_name(self):
        with pytest.raises(UnknownAlgorithmError, match="unknown algorithm"):
            get_algorithm("quantum-gossip")
        with pytest.raises(ValueError):  # it is a ValueError subtype
            get_algorithm("quantum-gossip")


class TestRegistration:
    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateAlgorithmError, match="already registered"):
            register_algorithm("push")(lambda sim, source: None)

    def test_register_and_unregister(self):
        @register_algorithm(
            "test-echo", category="baseline", doc="Test-only stub."
        )
        def echo(sim, source=0):
            import numpy as np

            from repro.core.result import report_from_sim

            informed = np.ones(sim.net.n, dtype=bool)
            sim.idle_round("echo")
            sim.emit("echo.done", informed=int(informed.sum()))
            return report_from_sim("test-echo", sim, informed)

        try:
            assert "test-echo" in algorithm_names()
            from repro import broadcast
            from repro.obs.telemetry import Telemetry

            telemetry = Telemetry()
            report = broadcast(64, "test-echo", seed=0, telemetry=telemetry)
            assert report.success and report.rounds == 1
            assert telemetry.runs[0].events == [
                {"round": 1, "kind": "echo.done", "data": {"informed": 64}}
            ]
        finally:
            unregister_algorithm("test-echo")
        assert "test-echo" not in algorithm_names()

    def test_module_reload_replaces_instead_of_raising(self):
        import importlib
        import sys

        module = sys.modules["repro.baselines.uniform_push"]
        importlib.reload(module)  # decorator re-executes with same qualname
        assert "push" in algorithm_names()
        from repro import broadcast

        assert broadcast(256, "push", seed=0).success

    def test_doc_defaults_to_docstring(self):
        @register_algorithm("test-docline", category="baseline")
        def documented(sim, source=0):
            """First line becomes the catalogue doc.

            Second paragraph is ignored.
            """

        try:
            assert (
                get_algorithm("test-docline").doc
                == "First line becomes the catalogue doc."
            )
        finally:
            unregister_algorithm("test-docline")


class TestRoundTrip:
    @pytest.mark.parametrize("name", algorithm_names())
    def test_every_registered_name_runs_via_broadcast(self, name):
        from repro import broadcast

        n = 4096 if name == "cluster3" else 512
        report = broadcast(n, name, seed=0)
        assert isinstance(report, AlgorithmReport)
        assert report.n == n
        assert report.rounds > 0
        assert report.informed_fraction > 0.9

    def test_non_broadcastable_rejected(self):
        from repro import broadcast

        with pytest.raises(ValueError, match="not a broadcast algorithm"):
            broadcast(256, "name-dropper")
