"""Contract of the nine name → entry tables.

Algorithms, tasks, topologies, scenarios, schedules, profiles, delay
models, failure patterns and growth families are each a
:class:`~repro.catalogue.Catalogue`.  Every row below holds one table to
the same rules: an unknown name raises the table's own ``ValueError``
type with ``unknown <kind> '<name>'; choose from [<sorted names>]``
(through the public lookup too), a different entry under a taken name
conflicts, a reload of a registry entry replaces it, and the fixed names
cannot be unregistered.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Type

import pytest

from repro.analysis.theory import GROWTH_FAMILIES, fit_growth, grows_slower_than
from repro.catalogue import Catalogue
from repro.core.constants import LAPTOP, PROFILES, get_profile
from repro.registry import (
    ALGORITHMS,
    TASKS,
    TOPOLOGIES,
    AlgorithmSpec,
    DuplicateAlgorithmError,
    DuplicateTaskError,
    DuplicateTopologyError,
    TaskSpec,
    TopologySpec,
    UnknownAlgorithmError,
    UnknownTaskError,
    UnknownTopologyError,
    get_algorithm,
    get_task,
    get_topology_spec,
    make_topology,
    register_spec,
    register_task,
    register_topology,
    unregister_task,
    unregister_topology,
)
from repro.sim.dynamics import SCHEDULES, get_schedule
from repro.sim.failures import PATTERNS, apply_pattern, check_failures
from repro.sim.schedule import parse_delay
from repro.sim.topology import DELAY_MODELS, UniformJitterDelay
from repro.workloads.scenarios import SCENARIOS, get_scenario

NS = [2**8, 2**10, 2**12, 2**14]


class Table(NamedTuple):
    table: Catalogue
    kind: str
    unknown: Type[ValueError]
    duplicate: Type[ValueError]
    #: The table's public lookups, each called with the missing name.
    lookups: tuple
    taken: str
    #: A different entry to register under ``taken``.
    different: Callable[[], Any]


TABLES = {
    "algorithms": Table(
        ALGORITHMS, "algorithm", UnknownAlgorithmError, DuplicateAlgorithmError,
        (get_algorithm,), "push",
        lambda: AlgorithmSpec(name="push", runner=lambda sim, source: None),
    ),
    "tasks": Table(
        TASKS, "task", UnknownTaskError, DuplicateTaskError,
        (get_task,), "k-rumor", lambda: TaskSpec(name="k-rumor", factory=dict),
    ),
    "topologies": Table(
        TOPOLOGIES, "topology", UnknownTopologyError, DuplicateTopologyError,
        (get_topology_spec, make_topology), "ring",
        lambda: TopologySpec(name="ring", factory=dict),
    ),
    "scenarios": Table(
        SCENARIOS, "scenario", ValueError, ValueError,
        (get_scenario,), "membership-update", lambda: SCENARIOS["config-fanout"],
    ),
    "schedules": Table(
        SCHEDULES, "schedule", ValueError, ValueError,
        (get_schedule,), "churn-light", lambda: SCHEDULES["churn-heavy"],
    ),
    "profiles": Table(
        PROFILES, "profile", ValueError, ValueError,
        (get_profile,), "paper", lambda: LAPTOP,
    ),
    "delay-models": Table(
        DELAY_MODELS, "delay model", ValueError, ValueError,
        (parse_delay,), "constant", lambda: UniformJitterDelay,
    ),
    "failure-patterns": Table(
        PATTERNS, "failure pattern", ValueError, ValueError,
        (lambda name: check_failures(64, name, 0),
         lambda name: apply_pattern(None, name, 0)),
        "random", lambda: PATTERNS["prefix"],
    ),
    "growth-families": Table(
        GROWTH_FAMILIES, "family", ValueError, ValueError,
        (lambda name: fit_growth(NS, [1, 2, 3, 4], name),
         lambda name: grows_slower_than(NS, [1, 2, 3, 4], name)),
        "log", lambda: GROWTH_FAMILIES["loglog"],
    ),
}

#: The tables with a module-and-qualname identity (reloads replace).
REGISTRY_TABLES = {
    "algorithms": (
        register_spec, lambda fn: AlgorithmSpec(name="test-reload", runner=fn)
    ),
    "tasks": (register_task, lambda fn: TaskSpec(name="test-reload", factory=fn)),
    "topologies": (
        register_topology, lambda fn: TopologySpec(name="test-reload", factory=fn)
    ),
}


def _twin():
    """A fresh function object with the same module and qualname on every
    call: what a module reload re-registers."""

    def entry(*args, **kwargs):
        return None

    return entry


@pytest.mark.parametrize("key", TABLES)
def test_is_a_catalogue(key):
    assert isinstance(TABLES[key].table, Catalogue)


@pytest.mark.parametrize("key", TABLES)
def test_unknown_name_lists_the_choices(key):
    row = TABLES[key]
    for lookup in (row.table.lookup, *row.lookups):
        with pytest.raises(row.unknown) as exc:
            lookup("bogus")
        assert type(exc.value) is row.unknown
        assert str(exc.value) == (
            f"unknown {row.kind} 'bogus'; choose from {sorted(row.table)}"
        )
    with pytest.raises(row.unknown, match="choose from"):
        row.table.lookup(["bogus"])  # unhashable: still a lookup miss
    assert row.table.names() == sorted(row.table)
    assert row.table.entries() == [row.table[name] for name in sorted(row.table)]


@pytest.mark.parametrize("key", TABLES)
def test_taken_name_conflicts(key):
    row = TABLES[key]
    held = row.table.lookup(row.taken)
    with pytest.raises(row.duplicate, match="already registered"):
        row.table.register(row.different(), row.taken)
    assert row.table[row.taken] is held


@pytest.mark.parametrize("key", sorted(set(TABLES) - set(REGISTRY_TABLES)))
def test_reregistering_the_same_entry_conflicts_without_identity(key):
    row = TABLES[key]
    with pytest.raises(row.duplicate, match="already registered"):
        row.table.register(row.table[row.taken], row.taken)


@pytest.mark.parametrize("key", REGISTRY_TABLES)
def test_reload_replaces(key):
    table = TABLES[key].table
    register, build = REGISTRY_TABLES[key]
    first, reloaded = build(_twin()), build(_twin())
    register(first)
    try:
        register(reloaded)
        assert table.lookup("test-reload") is reloaded
    finally:
        table.unregister("test-reload")
    assert "test-reload" not in table


def test_entries_without_a_defining_function_never_match():
    # The broadcast task has no factory, so no re-registration is its reload.
    with pytest.raises(DuplicateTaskError, match="already registered"):
        register_task(TaskSpec(name="broadcast"))
    assert TASKS["broadcast"].doc


@pytest.mark.parametrize(
    "table, name, unregister",
    [
        (TASKS, "broadcast", unregister_task),
        (TOPOLOGIES, "complete", unregister_topology),
    ],
)
def test_fixed_names_cannot_be_unregistered(table, name, unregister):
    for remove in (table.unregister, unregister):
        with pytest.raises(ValueError, match="cannot be unregistered"):
            remove(name)
    assert name in table
