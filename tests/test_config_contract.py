"""One config contract for every engine.

A configuration is either rejected before any engine runs, with the
same one-line ``ValueError`` from :func:`broadcast` and from
:func:`run_replications` on every engine, or it runs.  When a valid
configuration cannot run on the vector engine, one function names the
reason (:func:`repro.core.broadcast.vector_unavailable`):
``engine="vector"`` raises with it, and ``engine="auto"`` falls back to
the reset engine and records it.

Three layers pin the contract: a table of the configurations the
engines once disagreed on, one test per reason the vector engine
refuses a configuration, and a Hypothesis fuzzer over the dispatcher's
inputs.  Two more hold every entry point to the same inputs: each one
checks the seed, and each one takes all twelve run settings.
"""

import dataclasses
import functools
import inspect
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import ReplicationEngine, broadcast, run_replications
from repro.analysis.runner import RunRecord, RunSpec, replication_sweep, run_once, sweep
from repro.analysis.stats import ReplicationSummary
from repro.core.broadcast import (
    REPLICATION_ENGINES,
    RUN_SETTINGS,
    check_config,
    report_scalars,
    vector_unavailable,
)
from repro.registry import algorithm_names, get_algorithm, register_batch_runner
from repro.sim.batch import is_integer
from repro.sim.schedule import EventSchedulerSpec
from repro.sim.topology import (
    EdgeWeightedDelay,
    ErdosRenyiGnp,
    NodeSlowdownDelay,
    RandomRegular,
    Ring,
    UniformJitterDelay,
)
from repro.workloads.scenarios import Scenario


def _outcome(call):
    """``None`` if ``call`` ran, else its one-line ``ValueError`` message.

    Any other exception propagates, so a traceback fails the test."""
    try:
        call()
    except ValueError as exc:
        message = str(exc)
        assert "\n" not in message, message
        return message
    return None


def _outcomes(n, algorithm, config):
    """The outcome of every entry point: each replication engine, and
    :func:`broadcast` unless ``config`` has a bad ``reps`` or sets
    ``workers`` (knobs only :func:`run_replications` takes)."""
    config = dict(config)
    reps = config.pop("reps", 2)
    out = {
        engine: _outcome(
            functools.partial(
                run_replications, n, algorithm, reps=reps, engine=engine, **config
            )
        )
        for engine in REPLICATION_ENGINES
    }
    if "workers" not in config and is_integer(reps) and reps >= 1:
        out["broadcast"] = _outcome(
            functools.partial(broadcast, n, algorithm, **config)
        )
    return out


# ----------------------------------------------------------------------
# The divergence table
# ----------------------------------------------------------------------

#: (row id, n, algorithm, config, the message every entry point raises).
#: Each comment says what the engines did before they shared one check.
DIVERGENCES = [
    # vector ran 3 replications; reset raised a range() TypeError
    ("reps-float", 64, "push-pull", {"reps": 2.5},
     r"^reps must be an integer, got 2\.5$"),
    # vector ran; reset raised a TypeError
    ("workers-float", 64, "push-pull", {"workers": 1.5},
     r"^workers must be an integer, got 1\.5$"),
    # broadcast and reset ran; vector raised a TypeError
    ("n-float", 1.5, "push-pull", {}, r"^n must be an integer, got 1\.5$"),
    # broadcast, reset and auto: "source 0 out of range for n=0";
    # vector: "vector engine unavailable"
    ("n-zero", 0, "push-pull", {}, r"^n must be positive, got 0$"),
    # sequential: a numpy IndexError; vector: ran from node 2
    ("source-float", 64, "push-pull", {"source": 2.5},
     r"^source must be a node index or None, got 2\.5$"),
    # sequential: numpy's ambiguous-truth-value error; vector: ran from node 1
    ("source-bool", 64, "push-pull", {"source": True},
     r"^source must be a node index or None, got True$"),
    # reset ran; vector raised a UFuncTypeError
    ("message-bits-float", 64, "cluster2", {"message_bits": 2.5},
     r"^rumor_bits must be an integer, got 2\.5$"),
    # reset rejected it; vector ignored it
    ("profile-bogus", 64, "push-pull", {"profile": "bogus"},
     r"^unknown profile 'bogus'"),
    # a TypeError naming uniform_push_pull() or batched_push_pull()
    ("knob-push-pull", 64, "push-pull", {"bogus": 3},
     r"^algorithm 'push-pull' does not accept \['bogus'\]"),
    # a TypeError naming cluster2() or batched_cluster2()
    ("knob-cluster2", 64, "cluster2", {"bogus": 3},
     r"^algorithm 'cluster2' does not accept \['bogus'\]"),
    # accepted everywhere: the pattern was only looked up when applied
    ("pattern-at-zero-failures", 64, "push-pull", {"failure_pattern": "bogus"},
     r"^unknown failure pattern 'bogus'"),
    # reset raised; vector skipped the push-sum cap's tol check and ran
    ("tol-with-round-cap", 64, "push-pull",
     {"task": "push-sum", "task_kwargs": {"tol": 2}, "max_rounds": 5},
     r"^tol must be in \(0, 1\), got 2$"),
    # reset ran it as k=2; vector raised a TypeError
    ("k-float", 64, "push-pull", {"task": "k-rumor", "task_kwargs": {"k": 2.5}},
     r"^k must be an integer, got 2\.5$"),
    # reset ran it as k=1; vector raised a TypeError
    ("k-bool", 64, "push-pull", {"task": "k-rumor", "task_kwargs": {"k": True}},
     r"^k must be an integer, got True$"),
    # "... exceed 64 alive nodes" on reset, "... exceed 64 nodes" on vector
    ("k-too-many", 64, "push-pull", {"task": "k-rumor", "task_kwargs": {"k": 100}},
     r"^k=100 sources exceed 64 alive nodes$"),
    # ran on both tiers, charging negative bits
    ("push-sum-value-bits", 64, "push-pull",
     {"task": "push-sum", "task_kwargs": {"value_bits": -8}},
     r"^value_bits must be positive, got -8$"),
    # ran on both tiers, charging fractional bits
    ("min-max-value-bits", 64, "push-pull",
     {"task": "min-max", "task_kwargs": {"value_bits": 2.5}},
     r"^value_bits must be an integer, got 2\.5$"),
]


@pytest.mark.parametrize(
    "n, algorithm, config, match",
    [row[1:] for row in DIVERGENCES],
    ids=[row[0] for row in DIVERGENCES],
)
def test_divergence_ends_the_same_on_every_entry_point(n, algorithm, config, match):
    outcomes = _outcomes(n, algorithm, config)
    assert len(set(outcomes.values())) == 1, outcomes
    message = outcomes["reset"]
    assert message is not None and re.search(match, message), outcomes


# ----------------------------------------------------------------------
# The engine choice: one named reason per refusal
# ----------------------------------------------------------------------

#: (case id, n, algorithm, config, a phrase the reason must contain)
REFUSALS = [
    ("no-batch-runner", 64, "push", {}, "no batch runner"),
    ("no-task-batch-runner", 64, "cluster2", {"task": "push-sum"}, "no batch runner"),
    ("schedule", 64, "push-pull", {"schedule": "loss:0.1"}, "adversity schedule"),
    ("failures", 64, "cluster2", {"failures": 3}, "pre-run failures"),
    ("one-node", 1, "push-pull", {}, "n >= 2"),
    ("topology-addressing", 64, "push-pull",
     {"topology": Ring(k=2), "direct_addressing": "topology"}, "direct_addressing"),
    ("runner-without-graph", 64, "push-pull",
     {"task": "push-sum", "topology": Ring(k=2)}, "does not accept graph="),
    ("traced-event-tier", 64, "push-pull",
     {"scheduler": "event", "trace": True}, "traced scheduler=event"),
]


@pytest.mark.parametrize(
    "n, algorithm, config, phrase",
    [case[1:] for case in REFUSALS],
    ids=[case[0] for case in REFUSALS],
)
def test_vector_refusal_names_the_reason_auto_records(n, algorithm, config, phrase):
    task = config.get("task", "broadcast")
    with pytest.raises(ValueError) as refused:
        run_replications(n, algorithm, reps=2, engine="vector", **config)
    summary = run_replications(n, algorithm, reps=2, engine="auto", **config)
    assert summary.engine == "reset"
    reason = summary.extras["engine_fallback"]
    assert phrase in reason
    assert str(refused.value) == (
        f"vector engine unavailable for {algorithm!r} (task {task!r}): {reason}"
    )


def test_runner_capabilities_read_through_a_wrapper():
    """Capabilities are the runner's keyword parameters, so a
    ``functools.wraps`` wrapper (perfbench's tracer re-registers the
    push-pull runner this way) keeps the overlay and the bound graph."""
    original = get_algorithm("push-pull").batch_runner
    calls = []

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        calls.append(sorted(kwargs))
        return original(*args, **kwargs)

    register_batch_runner("push-pull")(wrapped)
    try:
        summary = run_replications(
            64, "push-pull", reps=2, scheduler="event", topology=Ring(k=2)
        )
    finally:
        register_batch_runner("push-pull")(original)
    assert summary.engine == "vector"
    assert calls and {"graph", "overlay"} <= set(calls[0])


# ----------------------------------------------------------------------
# The fuzzer
# ----------------------------------------------------------------------


def _mostly(common, rare):
    """Draw from the ``common`` strategy fifteen times in sixteen, else
    one of the ``rare`` values (mostly invalid ones), so most fuzzed
    configs get past the check and run."""
    return st.integers(0, 15).flatmap(
        lambda i: st.sampled_from(rare) if i == 0 else common
    )


#: The complete graph in half the draws: the task runners need it.
TOPOLOGIES = st.one_of(
    st.none(), st.sampled_from([Ring(k=2), RandomRegular(d=4), ErdosRenyiGnp(p=0.3)])
)
SCHEDULERS = [
    None,
    "event",
    EventSchedulerSpec(delay=NodeSlowdownDelay(fraction=0.1, factor=5.0)),
    EventSchedulerSpec(delay=UniformJitterDelay()),
    EventSchedulerSpec(delay=EdgeWeightedDelay()),
]
#: The paper's broadcast task in half the draws: only push-pull has
#: batch runners for the other tasks.
TASKS = st.one_of(st.just(("broadcast", {})), _mostly(
    st.sampled_from([
        ("k-rumor", {}), ("k-rumor", {"k": 2}),
        ("push-sum", {}), ("push-sum", {"tol": 0.5}),
        ("min-max", {}), ("min-max", {"mode": "max"}),
    ]),
    [
        ("k-rumor", {"k": 2.5}), ("k-rumor", {"k": 100}), ("push-sum", {"tol": 2}),
        ("push-sum", {"value_bits": 0}), ("min-max", {"mode": "median"}),
        ("broadcast", {"k": 2}),
    ],
))
#: No failures in most draws: pre-run failures keep a config off the
#: vector engine.
FAILURES = _mostly(
    st.just((0, "random")),
    [(3, "random"), (2, "prefix"), (2, "smallest-uids"), (0.25, "fraction"),
     (1.5, "fraction"), (2.5, "random"), (0, "bogus"), (-1, "random"), (64, "prefix")],
)
#: Half the draws name an algorithm with a batch runner.
ALGORITHMS = st.one_of(
    st.sampled_from(["push-pull", "cluster1", "cluster2"]),
    st.sampled_from(algorithm_names(broadcastable_only=False)),
)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    algorithm=ALGORITHMS,
    task=TASKS,
    topology=TOPOLOGIES,
    direct_addressing=_mostly(st.just("global"), ["topology"]),
    scheduler=st.sampled_from(SCHEDULERS),
    trace=_mostly(st.just(False), [True]),
    n=_mostly(
        st.integers(1, 64) | st.integers(1, 64).map(np.int64), [0, 1.5, True]
    ),
    failures=FAILURES,
    message_bits=_mostly(st.sampled_from([256, 1, np.int64(64)]), [0, -5, 2.5]),
    source=_mostly(st.sampled_from([0, None, 1, np.int64(1)]), [64, -1, 2.5, True]),
    reps=_mostly(st.sampled_from([2, 1, np.int64(3)]), [0, 2.5]),
)
def test_fuzzed_configs_keep_one_contract(
    algorithm, task, topology, direct_addressing, scheduler, trace,
    n, failures, message_bits, source, reps,
):
    task, task_kwargs = task
    count, pattern = failures
    config = dict(
        source=source,
        message_bits=message_bits,
        failures=count,
        failure_pattern=pattern,
        task=task,
        task_kwargs=task_kwargs,
        topology=topology,
        direct_addressing=direct_addressing,
        scheduler=scheduler,
        trace=trace,
    )
    try:
        checked = check_config(n, algorithm, reps=reps, **config)
    except ValueError as exc:
        config_error, reason = str(exc), None
    else:
        config_error = None
        reason = vector_unavailable(checked)

    outcomes = _outcomes(n, algorithm, dict(config, reps=reps))
    if config_error is not None:
        # Rejected before any engine runs: the same message everywhere.
        event("rejected by the config check")
        assert set(outcomes.values()) == {config_error}, outcomes
        return
    if reason is not None:
        assert outcomes.pop("vector") == (
            f"vector engine unavailable for {algorithm!r} (task {task!r}): {reason}"
        )
    # Every engine the choice accepts runs, or raises the same one-line
    # error that the algorithm, task state, graph or delay model owns.
    assert len(set(outcomes.values())) == 1, outcomes
    event("runs" if outcomes["auto"] is None else "raises an owned error")
    event("vector engine accepts" if reason is None else "vector engine refuses")
    if outcomes["auto"] is None:
        summary = run_replications(n, algorithm, reps=reps, **config)
        assert summary.engine == ("vector" if reason is None else "reset")
        assert summary.extras.get("engine_fallback") == reason


# ----------------------------------------------------------------------
# Every entry point: the seed, and all twelve run settings
# ----------------------------------------------------------------------

ALGORITHM = "push-pull"


def _scenario(n, config):
    """A scenario carrying ``config``: the settings it has fields for as
    fields, the rest (``source``, ``profile``, ``trace``) in ``kwargs``."""
    own = {f.name for f in dataclasses.fields(Scenario)}
    return Scenario(
        name="every-setting",
        description="every entry point takes every run setting",
        n=n,
        algorithm=ALGORITHM,
        **{"message_bits": 256, **{k: v for k, v in config.items() if k in own}},
        kwargs={k: v for k, v in config.items() if k not in own},
    )


def _replications(engine):
    return lambda n, seed, config: run_replications(
        n, ALGORITHM, reps=2, base_seed=seed, engine=engine, **config
    )


#: Every entry point, as (the keyword its seed error names,
#: ``call(n, seed, config)``).
ENTRY_POINTS = {
    "broadcast": (
        "seed", lambda n, seed, config: broadcast(n, ALGORITHM, seed=seed, **config)
    ),
    "ReplicationEngine.run": (
        "seed", lambda n, seed, config: ReplicationEngine(n, ALGORITHM, **config).run(seed)
    ),
    "run_replications": ("base_seed", _replications("auto")),
    "RunSpec.run": (
        "seed", lambda n, seed, config: RunSpec.of(ALGORITHM, n, seed, **config).run()
    ),
    "RunSpec.replicate": (
        "base_seed",
        lambda n, seed, config: RunSpec.of(
            ALGORITHM, n, seed, reps=2, **config
        ).replicate(),
    ),
    "run_once": ("seed", lambda n, seed, config: run_once(ALGORITHM, n, seed, **config)),
    "sweep": ("seed", lambda n, seed, config: sweep([ALGORITHM], [n], [seed], **config)[0]),
    "replication_sweep": (
        "base_seed",
        lambda n, seed, config: replication_sweep(
            [ALGORITHM], [n], 2, base_seed=seed, **config
        )[0],
    ),
    "Scenario.run": ("seed", lambda n, seed, config: _scenario(n, config).run(seed)),
    "Scenario.replicate": (
        "base_seed",
        lambda n, seed, config: _scenario(n, config).run_spec(seed, reps=2).replicate(),
    ),
}
#: The seed reaches every replication engine through the same check.
SEED_ENTRY_POINTS = {
    **ENTRY_POINTS,
    "run_replications[vector]": ("base_seed", _replications("vector")),
    "run_replications[reset]": ("base_seed", _replications("reset")),
}


@pytest.mark.parametrize(
    "value", [2.5, None, True, -1], ids=["float", "none", "bool", "negative"]
)
@pytest.mark.parametrize("entry", list(SEED_ENTRY_POINTS))
def test_every_entry_point_checks_the_seed(entry, value):
    name, call = SEED_ENTRY_POINTS[entry]
    assert _outcome(lambda: call(64, value, {})) == (
        f"{name} must be a non-negative integer, got {value}"
    )


def _figures(result):
    if isinstance(result, ReplicationSummary):
        return result.row()
    if isinstance(result, RunRecord):
        return dataclasses.asdict(result)
    return {**report_scalars(result), "seed": result.extras["seed"]}


@pytest.mark.parametrize("entry", list(SEED_ENTRY_POINTS))
def test_a_numpy_seed_runs_as_its_value(entry):
    _, call = SEED_ENTRY_POINTS[entry]
    assert _figures(call(64, np.int64(3), {})) == _figures(call(64, 3, {}))


#: One value per run setting that is not its default, with the setting
#: it needs beside it (a task's knobs need that task, topology-bound
#: addressing a restricted topology).
RUN_SETTING_VALUES = {
    "source": {"source": None},
    "message_bits": {"message_bits": 128},
    "failures": {"failures": 4},
    "failure_pattern": {"failure_pattern": "prefix"},
    "schedule": {"schedule": "churn-light"},
    "task": {"task": "min-max"},
    "task_kwargs": {"task": "min-max", "task_kwargs": {"mode": "max"}},
    "topology": {"topology": "ring"},
    "direct_addressing": {"topology": "ring", "direct_addressing": "topology"},
    "scheduler": {"scheduler": "event"},
    "profile": {"profile": "paper"},
    "trace": {"trace": True},
}
#: What a report shows once a setting took effect (``message_bits``,
#: ``failure_pattern`` and ``profile`` leave no mark of their own).
REPORT_SHOWS = {
    "source": ("source", 6),  # seed 1's random source; the default is node 0
    "failures": ("failures", 4),
    "schedule": ("schedule", "bernoulli trickle rate=0.0005 r0+"),
    "task": ("task", "min-max"),
    "task_kwargs": ("task_mode", "max"),
    "topology": ("topology", "ring(k=1)"),
    "direct_addressing": ("direct_addressing", "topology"),
}
#: The stream a report's extras or a summary's metrics gain.
STREAMS = {"scheduler": "sim_time", "trace": "critical_path_len"}


def test_the_run_settings_are_check_configs_keyword_only_parameters():
    parameters = inspect.signature(check_config).parameters.values()
    assert RUN_SETTINGS == {p.name for p in parameters if p.kind is p.KEYWORD_ONLY}
    assert RUN_SETTINGS == set(RUN_SETTING_VALUES)


@pytest.mark.parametrize("setting", list(RUN_SETTING_VALUES))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_entry_point_takes_every_run_setting(entry, setting):
    _, call = ENTRY_POINTS[entry]
    result = call(256, 1, dict(RUN_SETTING_VALUES[setting]))
    if isinstance(result, ReplicationSummary):
        shown = dict.fromkeys(result.metrics)
        if setting in ("task", "task_kwargs"):
            assert result.task == "min-max"
    else:
        shown = result.extras
        if setting in REPORT_SHOWS:
            key, value = REPORT_SHOWS[setting]
            assert shown[key] == value
    if setting in STREAMS:
        assert STREAMS[setting] in shown


def test_a_grid_of_single_runs_refuses_reps():
    """``reps`` fills the job's field, which only ``replicate()`` reads,
    so a grid of single runs refuses it instead of running each job once."""
    assert _outcome(lambda: sweep([ALGORITHM], [64], [0], reps=3)) == (
        "a job with reps=3 runs through replicate()"
    )
