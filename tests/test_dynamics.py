"""Tests for the dynamic-adversity subsystem (repro.sim.dynamics)."""

import pickle

import numpy as np
import pytest

from repro.analysis.runner import RunSpec, execute
from repro.core.broadcast import broadcast
from repro.registry import algorithm_names
from repro.sim.dynamics import (
    SCHEDULES,
    AdversitySchedule,
    Blackout,
    CrashAt,
    CrashTrickle,
    MessageLoss,
    ReviveAt,
    get_schedule,
    parse_schedule,
    resolve_schedule,
    schedule_names,
)
from repro.sim.engine import Round
from repro.sim.network import Network
from repro.sim.rng import make_rng
from repro.workloads.scenarios import get_scenario, run_suite, scenario_names

from helpers import build_sim


class TestEventValidation:
    def test_crash_needs_count_or_indices(self):
        with pytest.raises(ValueError, match="exactly one"):
            CrashAt(round=1)
        with pytest.raises(ValueError, match="exactly one"):
            CrashAt(round=1, count=3, indices=(1, 2))

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CrashAt(round=-1, count=3)

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError, match="pattern"):
            CrashAt(round=1, count=3, pattern="bogus")

    def test_loss_probability_range(self):
        with pytest.raises(ValueError):
            MessageLoss(p=1.0)
        with pytest.raises(ValueError):
            MessageLoss(p=-0.1)

    def test_loss_window_ordering(self):
        with pytest.raises(ValueError, match="after"):
            MessageLoss(p=0.1, start=5, stop=5)

    def test_trickle_kind_checked(self):
        with pytest.raises(ValueError, match="bernoulli"):
            CrashTrickle(rate=0.1, kind="gaussian")

    def test_blackout_needs_window(self):
        with pytest.raises(ValueError, match="after"):
            Blackout(start=4, stop=2, count=3)

    def test_schedule_rejects_non_events(self):
        with pytest.raises(TypeError):
            AdversitySchedule(("crash",))


class TestScheduleSpecs:
    def test_parse_round_trips_all_kinds(self):
        sched = parse_schedule(
            "loss:0.02,loss@3-9:0.5,crash@5:0.1,crash@6:12:prefix,"
            "revive@9:4,trickle:0.01,trickle@2-8:1.5:poisson,blackout@4-8:0.25"
        )
        kinds = [type(ev).__name__ for ev in sched.events]
        assert kinds == [
            "MessageLoss",
            "MessageLoss",
            "CrashAt",
            "CrashAt",
            "ReviveAt",
            "CrashTrickle",
            "CrashTrickle",
            "Blackout",
        ]
        assert sched.events[2].count == pytest.approx(0.1)  # fraction
        assert sched.events[3].count == 12 and sched.events[3].pattern == "prefix"
        assert sched.events[6].kind == "poisson"

    def test_parse_bad_clause(self):
        with pytest.raises(ValueError, match="bad schedule clause"):
            parse_schedule("crash:10")  # missing @round
        with pytest.raises(ValueError, match="unknown event kind"):
            parse_schedule("melt@3:1")

    def test_resolve_preset_name(self):
        assert resolve_schedule("churn-light") is get_schedule("churn-light")

    def test_resolve_none_and_empty(self):
        assert resolve_schedule(None) is None
        assert resolve_schedule(AdversitySchedule()) is None
        assert resolve_schedule("") is None

    def test_presets_catalogued(self):
        assert set(schedule_names()) == set(SCHEDULES)
        for name in schedule_names():
            named = SCHEDULES[name]
            assert named.description
            assert not named.schedule.is_empty

    def test_schedules_picklable(self):
        for name in schedule_names():
            sched = get_schedule(name)
            assert pickle.loads(pickle.dumps(sched)) == sched

    def test_describe_mentions_every_event(self):
        text = parse_schedule("loss:0.02,crash@5:0.1,blackout@8-12:64").describe()
        assert "loss" in text and "crash" in text and "blackout" in text


class TestDriverSemantics:
    def _drive(self, schedule, n=64, rounds=20, seed=0):
        net = Network(n, rng=seed)
        driver = schedule.bind(net, make_rng(seed))
        alive_per_round = []
        for r in range(rounds):
            driver.begin_round(r)
            alive_per_round.append(net.alive_count)
        return net, driver, alive_per_round

    def test_crash_at_round_fires_once(self):
        sched = AdversitySchedule((CrashAt(round=3, count=10),))
        net, driver, alive = self._drive(sched)
        assert alive[:3] == [64, 64, 64]
        assert alive[3:] == [54] * 17
        assert driver.crashed_total == 10

    def test_crash_fraction_of_alive(self):
        sched = AdversitySchedule(
            (CrashAt(round=0, count=32), CrashAt(round=5, count=0.5))
        )
        _, _, alive = self._drive(sched)
        assert alive[0] == 32
        assert alive[5] == 16  # half of the *remaining* population

    def test_crash_explicit_indices(self):
        sched = AdversitySchedule((CrashAt(round=2, indices=(1, 2, 3)),))
        net, _, _ = self._drive(sched)
        assert not net.alive[[1, 2, 3]].any()
        assert net.alive_count == 61

    def test_crash_prefix_and_smallest_uids(self):
        net1, _, _ = self._drive(
            AdversitySchedule((CrashAt(round=0, count=4, pattern="prefix"),))
        )
        assert not net1.alive[:4].any() and net1.alive[4:].all()
        net2, _, _ = self._drive(
            AdversitySchedule((CrashAt(round=0, count=4, pattern="smallest-uids"),))
        )
        dead = np.flatnonzero(~net2.alive)
        assert net2.uid[dead].max() < net2.uid[net2.alive].min()

    def test_always_leaves_one_survivor(self):
        sched = AdversitySchedule((CrashAt(round=0, count=1000),))
        net, _, _ = self._drive(sched)
        assert net.alive_count == 1

    def test_explicit_indices_leave_one_survivor_too(self):
        sched = AdversitySchedule((CrashAt(round=0, indices=tuple(range(64))),))
        net, _, _ = self._drive(sched)
        assert net.alive_count == 1

    def test_revive_cannot_steal_blackout_victims(self):
        # The only dead nodes at round 3 are the blackout's; ReviveAt must
        # leave them down until the window closes, and the close must not
        # double-count revivals.
        sched = AdversitySchedule(
            (Blackout(start=1, stop=6, count=20), ReviveAt(round=3, count=20))
        )
        net, driver, alive = self._drive(sched)
        assert alive[3] == alive[5] == 44  # blackout holds through round 5
        assert alive[6] == 64
        assert driver.crashed_total == 20
        assert driver.revived_total == 20

    def test_bernoulli_trickle_window(self):
        sched = AdversitySchedule((CrashTrickle(rate=0.5, start=5, stop=10),))
        _, _, alive = self._drive(sched, rounds=15)
        assert alive[4] == 64  # nothing before the window
        assert alive[10] < 64  # crashed inside it
        assert alive[10] == alive[14]  # nothing after

    def test_poisson_trickle_crashes(self):
        sched = AdversitySchedule((CrashTrickle(rate=2.0, kind="poisson"),))
        net, driver, _ = self._drive(sched, rounds=10)
        assert driver.crashed_total == 64 - net.alive_count
        assert 0 < driver.crashed_total < 64

    def test_revive_restores_crashed_nodes(self):
        sched = AdversitySchedule(
            (CrashAt(round=1, count=20), ReviveAt(round=4, count=20))
        )
        _, _, alive = self._drive(sched)
        assert alive[1] == 44
        assert alive[4] == 64

    def test_blackout_window_round_trip(self):
        sched = AdversitySchedule((Blackout(start=3, stop=7, count=16),))
        net, driver, alive = self._drive(sched)
        assert alive[2] == 64
        assert alive[3] == alive[6] == 48
        assert alive[7] == 64 and net.alive.all()
        assert driver.crashed_total == driver.revived_total == 16

    def test_begin_round_idempotent(self):
        sched = AdversitySchedule((CrashAt(round=2, count=5),))
        net = Network(32, rng=0)
        driver = sched.bind(net, make_rng(0))
        for r in [0, 1, 2, 2, 2, 3]:  # re-opening round 2 fires nothing twice
            driver.begin_round(r)
        assert driver.crashed_total == 5

    def test_loss_probability_windows_compound(self):
        sched = AdversitySchedule(
            (MessageLoss(p=0.5), MessageLoss(p=0.5, start=2, stop=4))
        )
        net = Network(16, rng=0)
        driver = sched.bind(net, make_rng(0))
        driver.begin_round(0)
        assert driver.loss_p == pytest.approx(0.5)
        driver.begin_round(2)
        assert driver.loss_p == pytest.approx(0.75)
        driver.begin_round(4)
        assert driver.loss_p == pytest.approx(0.5)

    def test_survival_masks_one_draw_per_op(self):
        sched = AdversitySchedule((MessageLoss(p=0.3),))
        net = Network(16, rng=0)
        driver = sched.bind(net, make_rng(0))
        driver.begin_round(0)
        keep = driver.push_survival(10_000)
        assert keep.dtype == bool and len(keep) == 10_000
        assert 0.62 < keep.mean() < 0.78
        req, ok = driver.pull_survival(10_000)
        assert not (ok & ~req).any()  # round trip implies request arrived
        assert 0.62 < req.mean() < 0.78
        assert 0.40 < ok.mean() < 0.58  # ~(1-p)^2 = 0.49

    def test_no_loss_returns_none(self):
        sched = AdversitySchedule((CrashAt(round=5, count=2),))
        net = Network(16, rng=0)
        driver = sched.bind(net, make_rng(0))
        driver.begin_round(0)
        assert driver.push_survival(100) is None
        assert driver.pull_survival(100) is None


class TestEngineIntegration:
    def _sim_with(self, schedule, n=32, seed=0):
        sim = build_sim(n, seed)
        sim.dynamics = schedule.bind(sim.net, make_rng(seed + 99))
        sim.dynamics.begin_round(0)
        return sim

    def test_crash_fires_at_round_boundary(self):
        sim = self._sim_with(AdversitySchedule((CrashAt(round=1, indices=(5,)),)))
        assert sim.net.alive[5]
        sim.idle_round()  # committing round 0 fires round 1's events
        assert not sim.net.alive[5]

    def test_committed_alive_is_the_last_rounds_liveness(self):
        sim = self._sim_with(AdversitySchedule((CrashAt(round=1, indices=(5,)),)))
        assert sim.committed_alive is sim.net.alive  # nothing committed yet
        sim.idle_round()  # round 0 ran with node 5 alive
        assert not sim.net.alive[5]
        assert sim.committed_alive[5]
        sim.idle_round()
        assert not sim.committed_alive[5]

    def test_static_run_copies_no_liveness(self):
        sim = build_sim(16)
        sim.idle_round()
        assert sim.committed_alive is sim.net.alive

    def test_crashed_node_pushes_dropped(self):
        sim = self._sim_with(AdversitySchedule((CrashAt(round=1, indices=(5,)),)))
        sim.idle_round()
        sim.push_round(np.array([5, 6]), np.array([7, 8]), 8)
        assert sim.metrics.total.pushes == 1  # node 5 is dead: not charged

    def test_lost_push_charged_not_delivered(self):
        sim = self._sim_with(AdversitySchedule((MessageLoss(p=1.0 - 1e-12),)))
        d = sim.push_round(np.arange(10), np.arange(10) + 10, 8)
        assert len(d.dsts) == 0  # everything lost
        assert sim.metrics.total.pushes == 10  # but all charged as sent
        assert sim.metrics.max_fanin == 0  # nothing arrived

    def test_lost_pull_request_not_charged_as_response(self):
        sim = self._sim_with(AdversitySchedule((MessageLoss(p=1.0 - 1e-12),)))
        out = sim.pull_round(np.arange(10), np.arange(10) + 10, 8)
        assert not out.answered.any()
        assert sim.metrics.total.pull_requests == 10
        assert sim.metrics.total.pull_responses == 0
        assert sim.metrics.max_fanin == 0

    def test_pull_answered_mask_parallel_to_declared_pulls(self):
        # A puller that crashes between the caller's planning and the
        # round must not misalign the answered mask.
        sim = self._sim_with(AdversitySchedule((CrashAt(round=1, indices=(0,)),)))
        sim.idle_round()
        out = sim.pull_round(np.array([0, 1, 2]), np.array([9, 10, 11]), 8)
        assert out.answered.tolist() == [False, True, True]

    def test_stale_negative_target_goes_into_the_void(self):
        sim = self._sim_with(AdversitySchedule((CrashAt(round=5, indices=(9,)),)))
        d = sim.push_round(np.array([0, 1]), np.array([-1, 4]), 8)
        assert d.dsts.tolist() == [4]
        assert sim.metrics.total.pushes == 2  # stale send still charged


def _fingerprint(report):
    return (
        report.rounds,
        report.messages,
        report.bits,
        report.max_fanin,
        int(report.informed.sum()),
    )


class TestZeroAdversityBitIdentity:
    # The pre-dynamics engine fingerprints that used to be pinned inline
    # here (commit fc08147, n=512, seed=3) now live in the versioned
    # corpus under tests/fingerprints/, replayed by test_fingerprints.py
    # through a fresh network, a reset network and the zero-latency
    # event tier.
    # This class keeps only the schedule-resolution identity.

    @pytest.mark.parametrize("algorithm", ["push-pull", "cluster2", "cluster3"])
    def test_empty_schedule_identical_to_none(self, algorithm):
        plain = broadcast(512, algorithm, seed=3)
        empty = broadcast(512, algorithm, seed=3, schedule=AdversitySchedule())
        assert _fingerprint(plain) == _fingerprint(empty)
        assert (plain.informed == empty.informed).all()
        assert (plain.alive == empty.alive).all()


class TestMidRoundCrashSemantics:
    """A node crashed at round t is invisible from round t on, for every
    broadcastable algorithm and baseline in the registry."""

    CRASH_ROUND = 2
    VICTIMS = (3, 4, 5)

    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_victims_never_act_after_crash(self, algorithm, monkeypatch):
        observed = []
        original_commit = Round.commit

        def spying_commit(round_self):
            round_index = round_self._sim.metrics.rounds
            for op in round_self._pushes:
                observed.append(("push-source", round_index, op.srcs))
                observed.append(("fanin-recipient", round_index, op.dsts[op.arrived]))
            for op in round_self._pulls:
                observed.append(("pull-responder", round_index, op.dsts[op.responds]))
                observed.append(("fanin-recipient", round_index, op.dsts[op.arrived]))
            original_commit(round_self)

        monkeypatch.setattr(Round, "commit", spying_commit)
        schedule = AdversitySchedule(
            (CrashAt(round=self.CRASH_ROUND, indices=self.VICTIMS),)
        )
        report = broadcast(256, algorithm, seed=1, schedule=schedule)
        assert not report.alive[list(self.VICTIMS)].any()
        assert any(r >= self.CRASH_ROUND for _, r, _ in observed)
        for role, round_index, indices in observed:
            if round_index >= self.CRASH_ROUND and len(indices):
                hit = np.isin(indices, self.VICTIMS)
                assert not hit.any(), (
                    f"{algorithm}: victim acted as {role} in round {round_index}"
                )


class TestExecutorDeterminism:
    """The PR 1 bit-identical guarantee extends to dynamics schedules."""

    def _specs(self):
        specs = []
        for name in ["churn-heavy", "lossy-datacenter", "blackout-partition"]:
            scenario = get_scenario(name)
            for seed in (0, 1):
                spec = scenario.run_spec(seed)
                specs.append(
                    RunSpec(
                        algorithm=spec.algorithm,
                        n=512,
                        seed=spec.seed,
                        message_bits=spec.message_bits,
                        schedule=spec.schedule,
                        kwargs=dict(spec.kwargs),
                    )
                )
        return specs

    def test_workers_1_and_2_bit_identical(self):
        specs = self._specs()
        serial = execute(specs, workers=1)
        parallel = execute(specs, workers=2)
        assert serial == parallel

    def test_runspec_with_schedule_picklable(self):
        for spec in self._specs():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec


class TestDynamicScenarios:
    def test_dynamic_presets_registered(self):
        names = scenario_names()
        for preset in [
            "churn-light",
            "churn-heavy",
            "lossy-datacenter",
            "blackout-partition",
            "failure-storm-dynamic",
            "membership-update-flaky",
        ]:
            assert preset in names
            assert get_scenario(preset).schedule is not None

    def test_schedule_string_resolved_at_definition(self):
        scenario = get_scenario("churn-light")
        assert isinstance(scenario.schedule, AdversitySchedule)

    def test_dynamic_suite_runs_end_to_end(self):
        names = ["churn-light", "lossy-datacenter", "blackout-partition"]
        cells = run_suite(names, seeds=[0])
        assert [c.scenario for c in cells] == names
        for cell in cells:
            assert cell.record.informed_fraction > 0.9

    def test_report_extras_carry_dynamics_tallies(self):
        report = get_scenario("churn-heavy").run(seed=0)
        assert report.extras["dyn_crashed"] > 0
        assert "schedule" in report.extras


class TestNetworkLiveness:
    def test_revive_round_trip(self):
        net = Network(16, rng=0)
        net.fail([3, 4])
        assert net.alive_count == 14
        net.revive([3])
        assert net.alive_count == 15 and net.alive[3] and not net.alive[4]

    def test_revive_bounds_checked(self):
        net = Network(8, rng=0)
        with pytest.raises(IndexError):
            net.revive([8])

    def test_liveness_epoch_moves_with_changes(self):
        net = Network(8, rng=0)
        e0 = net.liveness_epoch
        net.fail([1])
        assert net.liveness_epoch > e0
        e1 = net.liveness_epoch
        net.revive([1])
        assert net.liveness_epoch > e1
        e2 = net.liveness_epoch
        net.fail([])  # no-op: epoch untouched
        assert net.liveness_epoch == e2

    def test_alive_indices_cached_per_epoch(self):
        net = Network(8, rng=0)
        first = net.alive_indices()
        assert net.alive_indices() is first  # same epoch: cached object
        net.fail([2])
        second = net.alive_indices()
        assert second is not first
        assert second.tolist() == [0, 1, 3, 4, 5, 6, 7]
