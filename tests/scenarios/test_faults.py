"""Tests for the declarative fault-schedule engine."""

import pytest

from repro import SystemConfig, build_system
from repro.scenarios.faults import (
    CorrelatedCrash,
    CrashAt,
    DegradeAt,
    DegradeLinkAt,
    FaultSchedule,
    HealAt,
    PartitionAt,
    PoissonChurn,
    RecoverAt,
    RestoreAt,
    SuspectDuring,
    minority,
)
from tests.conftest import readme_module


def make_system(n=3, algorithm="fd", seed=1, **overrides):
    return build_system(SystemConfig(n=n, stack=algorithm, seed=seed, **overrides))


class TestEventValidation:
    def test_recovery_cannot_predate_the_run(self):
        with pytest.raises(ValueError):
            RecoverAt(-1.0, 0)

    def test_correlated_crash_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CorrelatedCrash(10.0, (1, 1))

    def test_correlated_crash_rejects_empty_group(self):
        with pytest.raises(ValueError):
            CorrelatedCrash(10.0, ())

    def test_suspect_during_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            SuspectDuring(start=5.0, duration=-1.0, target=0)

    def test_churn_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PoissonChurn(rate=0.0, mean_downtime=10.0, until=100.0)
        with pytest.raises(ValueError):
            PoissonChurn(rate=1.0, mean_downtime=0.0, until=100.0)
        with pytest.raises(ValueError):
            PoissonChurn(rate=1.0, mean_downtime=10.0, until=0.0)


class TestScheduleCompilation:
    def test_pre_crashed_applies_before_the_run(self):
        system = make_system()
        FaultSchedule.pre_crashed([2]).apply(system)
        assert system.network.is_crashed(2)
        assert system.fd_fabric.detector(0).is_suspected(2)
        assert system.correct_processes() == [0, 1]

    def test_timed_crash_and_recovery_fire_in_order(self):
        system = make_system()
        FaultSchedule([CrashAt(10.0, 1), RecoverAt(25.0, 1)]).apply(system)
        assert not system.network.is_crashed(1)
        system.run(until=15.0)
        assert system.network.is_crashed(1)
        system.run(until=30.0)
        assert not system.network.is_crashed(1)

    def test_correlated_crash_takes_the_group_down_at_once(self):
        system = make_system(n=5)
        FaultSchedule([CorrelatedCrash(12.0, (3, 4))]).apply(system)
        system.run(until=12.0)
        assert system.network.crashed_processes() == {3, 4}

    def test_suspect_during_window(self):
        system = make_system()
        FaultSchedule([SuspectDuring(start=5.0, duration=10.0, target=2)]).apply(system)
        system.run(until=6.0)
        assert system.fd_fabric.detector(0).is_suspected(2)
        assert system.fd_fabric.detector(1).is_suspected(2)
        system.run(until=20.0)
        assert not system.fd_fabric.detector(0).is_suspected(2)

    def test_max_concurrent_crashes_accounts_for_recoveries(self):
        schedule = FaultSchedule(
            [CrashAt(10.0, 0), RecoverAt(20.0, 0), CrashAt(20.0, 1), RecoverAt(30.0, 1)]
        )
        assert schedule.max_concurrent_crashes() == 1
        overlapping = FaultSchedule([CrashAt(10.0, 0), CrashAt(15.0, 1), RecoverAt(40.0, 0)])
        assert overlapping.max_concurrent_crashes() == 2


class TestEventsScheduleThemselves:
    def test_each_timed_event_posts_the_bound_method_that_enacts_it(self):
        system = make_system(n=3)
        processes, network, fabric = system.processes, system.network, system.fd_fabric
        FaultSchedule([
            CrashAt(10.0, 1, permanent_suspicion=True),
            RecoverAt(50.0, 1),
            CorrelatedCrash(55.0, (2, 0)),
            PartitionAt(60.0, groups=((0, 1), (2,))),
            PartitionAt(65.0, links=((0, 2),)),
            HealAt(70.0),
            DegradeAt(80.0, 0, 4.0),
            RestoreAt(90.0, 0),
            DegradeLinkAt(95.0, 0, 1, loss_probability=0.5),
        ]).apply(system)
        # The system is not started: its queue holds exactly the posted faults.
        posted = [
            (time, callback, args) for time, _seq, callback, args, _handle in sorted(system.sim._queue)
        ]
        assert posted == [
            (10.0, processes[1].crash, ()),
            (10.0, fabric.suspect_permanently, (1,)),
            (50.0, processes[1].recover, ()),
            (55.0, processes[2].crash, ()),
            (55.0, processes[0].crash, ()),
            (60.0, network.partition, ([(0, 1), (2,)],)),
            (65.0, network.block_links, ([(0, 2)],)),
            (70.0, network.heal, ()),
            (80.0, network.degrade_cpu, (0, 4.0)),
            (90.0, network.restore_cpu, (0,)),
            (95.0, network.degrade_link, (0, 1, 0.5, 0.0)),
        ]


#: Every timed event class naming a process a 3-process system lacks, plus a
#: pre-run crash: (event, the pid the error must name).  ``HealAt`` names no
#: process, so nothing is out of range.
OUT_OF_RANGE = [
    (CrashAt(0.0, 5, permanent_suspicion=True), 5),
    (CrashAt(10.0, 3), 3),
    (RecoverAt(10.0, 7), 7),
    (CorrelatedCrash(10.0, (1, 7)), 7),
    (SuspectDuring(start=5.0, duration=10.0, target=7), 7),
    (SuspectDuring(start=5.0, duration=10.0, target=0, monitors=(1, 9)), 9),
    (PartitionAt(10.0, groups=((0, 1), (9,))), 9),
    (PartitionAt(10.0, links=((0, 9),)), 9),
    (DegradeAt(10.0, 9, 2.0), 9),
    (RestoreAt(10.0, 9), 9),
    (DegradeLinkAt(10.0, 9, 0, loss_probability=0.5), 9),
    (CrashAt(10.0, -1), -1),
    (HealAt(10.0), None),
]


class TestOutOfRangePids:
    @pytest.mark.parametrize("event,pid", OUT_OF_RANGE, ids=lambda case: repr(case))
    def test_rejected_before_anything_is_applied_or_posted(self, event, pid):
        system = make_system(n=3)
        # A valid crash first: a partially compiled schedule would post it.
        schedule = FaultSchedule([CrashAt(1.0, 0), event])
        if pid is None:
            schedule.apply(system)
            assert system.sim.pending_events == 2
            return
        with pytest.raises(ValueError, match=f"{type(event).__name__}.* names process {pid},"):
            schedule.apply(system)
        assert system.sim.pending_events == 0
        assert system.network.crashed_processes() == set()

    def test_every_timed_event_class_is_in_the_table(self):
        classes = {type(event) for event, _pid in OUT_OF_RANGE}
        assert classes == {
            CrashAt, RecoverAt, CorrelatedCrash, SuspectDuring, PartitionAt,
            HealAt, DegradeAt, RestoreAt, DegradeLinkAt,
        }

    def test_schedule_alone_checks_too(self):
        system = make_system(n=3)
        with pytest.raises(ValueError, match="names process 4"):
            FaultSchedule([CrashAt(10.0, 1), RecoverAt(20.0, 4)]).schedule(system)
        assert system.sim.pending_events == 0


class TestMinority:
    """The pids a canonical partition or suspicion window cuts off."""

    @pytest.mark.parametrize(
        "n, expected", [(3, (2,)), (4, (3,)), (5, (3, 4)), (6, (4, 5)), (7, (4, 5, 6))]
    )
    def test_minority_is_the_top_pids(self, n, expected):
        assert minority(n) == expected

    def test_what_stays_is_a_strict_majority(self):
        for n in range(3, 16):
            assert 2 * (n - len(minority(n))) > n
            # ... and the minority is as large as that allows.
            assert 2 * (n - len(minority(n)) - 1) <= n


class TestReadmeBlock:
    """The README's "Adding a fault event" example, executed verbatim."""

    def test_the_event_schedules_itself_and_is_checked(self):
        with readme_module("### Adding a fault event", "readme_silent_sender") as silent:
            assert silent.system.network.stats.dropped_lossy_link > 0
            assert silent.system.abcast(0).delivered == []  # p2's only message was lost
            with pytest.raises(ValueError, match="names process 5"):
                FaultSchedule([silent.SilentSenderAt(20.0, 5)]).apply(make_system(n=3))


class TestPoissonChurn:
    def test_expansion_is_deterministic_per_seed(self):
        churn = PoissonChurn(rate=5.0, mean_downtime=100.0, until=5000.0)
        events_a = churn.expand(make_system(seed=7))
        events_b = churn.expand(make_system(seed=7))
        events_c = churn.expand(make_system(seed=8))
        assert events_a == events_b
        assert events_a != events_c

    def test_validate_then_apply_sees_the_same_timeline(self):
        # Expansion is a pure function of the seed: repeated expansion on the
        # SAME system (validation followed by compilation) must not consume
        # shared random state and change the timeline.
        system = make_system(seed=7)
        churn = PoissonChurn(rate=5.0, mean_downtime=100.0, until=5000.0)
        schedule = FaultSchedule([churn])
        first = schedule.timeline(system)
        worst = schedule.max_concurrent_crashes(system)
        assert worst <= 1
        assert schedule.timeline(system) == first

    def test_expansion_pairs_crashes_with_recoveries(self):
        churn = PoissonChurn(rate=5.0, mean_downtime=100.0, until=5000.0)
        events = churn.expand(make_system(seed=3))
        crashes = [e for e in events if isinstance(e, CrashAt)]
        recoveries = [e for e in events if isinstance(e, RecoverAt)]
        assert crashes, "a 5/s rate over 5 s should produce crashes"
        assert len(crashes) == len(recoveries)

    def test_expansion_respects_the_crash_bound(self):
        for n in (3, 5, 7):
            system = make_system(n=n, seed=13)
            schedule = FaultSchedule(
                [PoissonChurn(rate=50.0, mean_downtime=500.0, until=3000.0)]
            )
            worst = schedule.max_concurrent_crashes(system)
            assert worst <= SystemConfig(n=n).max_tolerated_crashes()

    def test_churn_respects_static_crash_windows(self):
        # Compose churn with an explicit crash/recovery pair: the generator
        # must neither touch the statically-crashed process during its
        # window nor breach the concurrency bound together with it.
        for seed in range(1, 8):
            system = make_system(n=5, seed=seed)
            schedule = FaultSchedule([
                CrashAt(100.0, 4),
                RecoverAt(2000.0, 4),
                PoissonChurn(rate=20.0, mean_downtime=300.0, until=3000.0),
            ])
            worst = schedule.max_concurrent_crashes(system)
            assert worst <= SystemConfig(n=5).max_tolerated_crashes()
            generated = schedule.events[-1].expand(
                system, external_downtime=schedule._static_downtime()
            )
            for event in generated:
                if isinstance(event, CrashAt):
                    assert event.pid != 4 or not 100.0 <= event.time < 2000.0

    def test_schedule_executes_churn_on_the_system(self):
        system = make_system(n=5, seed=21)
        FaultSchedule(
            [PoissonChurn(rate=10.0, mean_downtime=50.0, until=2000.0)]
        ).apply(system)
        system.run(until=5000.0)
        # Every churned process is back up by the end of the window.
        assert system.correct_processes() == [0, 1, 2, 3, 4]


class TestLinkFaultEventValidation:
    def test_partition_needs_exactly_one_of_groups_or_links(self):
        with pytest.raises(ValueError):
            PartitionAt(10.0)
        with pytest.raises(ValueError):
            PartitionAt(10.0, groups=((0, 1), (2,)), links=((0, 2),))

    def test_partition_rejects_pid_in_two_groups(self):
        with pytest.raises(ValueError):
            PartitionAt(10.0, groups=((0, 1), (1, 2)))

    def test_partition_rejects_self_link(self):
        with pytest.raises(ValueError):
            PartitionAt(10.0, links=((1, 1),))

    def test_partition_and_heal_cannot_predate_the_run(self):
        with pytest.raises(ValueError):
            PartitionAt(-1.0, groups=((0,), (1,)))
        with pytest.raises(ValueError):
            HealAt(-1.0)

    def test_degradation_factor_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            DegradeAt(10.0, 0, 0.5)
        DegradeAt(10.0, 0, 1.0)  # the identity degradation is allowed

    def test_degrade_and_restore_cannot_predate_the_run(self):
        with pytest.raises(ValueError):
            DegradeAt(-1.0, 0, 2.0)
        with pytest.raises(ValueError):
            RestoreAt(-1.0, 0)

    def test_gray_link_rejects_out_of_range_probabilities(self):
        with pytest.raises(ValueError):
            DegradeLinkAt(10.0, 0, 1, loss_probability=1.5)
        with pytest.raises(ValueError):
            DegradeLinkAt(10.0, 0, 1, duplicate_probability=-0.1)

    def test_gray_link_needs_distinct_endpoints(self):
        with pytest.raises(ValueError):
            DegradeLinkAt(10.0, 2, 2, loss_probability=0.5)

    def test_partition_transient_builder_validates(self):
        with pytest.raises(ValueError):
            FaultSchedule.partition_transient(2, 10.0, 5.0)
        with pytest.raises(ValueError):
            FaultSchedule.partition_transient(5, 10.0, 0.0)


class TestLinkFaultScheduleCompilation:
    def test_partition_and_heal_fire_in_order(self):
        system = make_system(n=3)
        FaultSchedule([PartitionAt(10.0, groups=((0, 1), (2,))), HealAt(25.0)]).apply(system)
        assert not system.network.is_link_blocked(0, 2)
        system.run(until=15.0)
        assert system.network.is_link_blocked(0, 2)
        assert system.network.is_link_blocked(2, 0)
        assert not system.network.is_link_blocked(0, 1)
        system.run(until=30.0)
        assert not system.network.is_link_blocked(0, 2)

    def test_asymmetric_links_block_one_direction(self):
        system = make_system(n=3)
        FaultSchedule([PartitionAt(10.0, links=((0, 2),))]).apply(system)
        system.run(until=15.0)
        assert system.network.is_link_blocked(0, 2)
        assert not system.network.is_link_blocked(2, 0)

    def test_degrade_and_restore_scale_the_cpu(self):
        system = make_system(n=3)
        FaultSchedule([DegradeAt(10.0, 1, 4.0), RestoreAt(20.0, 1)]).apply(system)
        assert system.network.cpu(1).rate_factor == 1.0
        system.run(until=15.0)
        assert system.network.cpu(1).rate_factor == 4.0
        system.run(until=25.0)
        assert system.network.cpu(1).rate_factor == 1.0

    def test_partition_transient_splits_off_the_minority(self):
        system = make_system(n=5)
        FaultSchedule.partition_transient(5, 10.0, 20.0).apply(system)
        system.run(until=15.0)
        # Minority {3, 4} is cut from the majority {0, 1, 2}, both ways.
        assert system.network.is_link_blocked(0, 3)
        assert system.network.is_link_blocked(4, 2)
        assert not system.network.is_link_blocked(3, 4)
        assert not system.network.is_link_blocked(0, 1)
        system.run(until=40.0)
        assert not system.network.is_link_blocked(0, 3)

    def test_gray_link_drops_frames_through_the_named_stream(self):
        system = make_system(n=3, seed=5)
        FaultSchedule([
            DegradeLinkAt(0.0, 0, 1, loss_probability=1.0),
        ]).apply(system)
        system.start()
        for time in (1.0, 5.0, 9.0):
            system.broadcast_at(time, 0, f"m-{time:g}")
        system.run(until=2_000.0)
        assert system.network.stats.dropped_lossy_link > 0


class TestEvenNViewMajorityLoss:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_staged_windows_reach_the_blocked_shape(self, n):
        schedule = FaultSchedule.view_majority_loss(n)
        suspicions = [e for e in schedule.events if isinstance(e, SuspectDuring)]
        crashes = [e for e in schedule.events if isinstance(e, CrashAt)]
        # Stage 1 suspects only the highest pid; stage 2 starts strictly
        # later and suspects the top (n-2)/2 of the intermediate odd view.
        stage1 = [e for e in suspicions if e.target == n - 1]
        assert len(stage1) == 1
        stage2 = [e for e in suspicions if e.target != n - 1]
        assert {e.target for e in stage2} == set(
            range((n - 1) - (n - 2) // 2, n - 1)
        )
        assert all(e.start > stage1[0].start for e in stage2)
        # Every window ends at the same instant, so the reformation
        # re-admits all wrongly suspected processes together.
        ends = {e.start + e.duration for e in suspicions}
        assert len(ends) == 1
        # The crash leaves one fewer alive member than the shrunken view's
        # majority, with the sequencer p0 alive.
        shrunken = n // 2
        assert {e.pid for e in crashes} == set(
            range(shrunken - (shrunken - shrunken // 2), shrunken)
        )
        assert 0 not in {e.pid for e in crashes}

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_path_is_the_single_window_construction(self, n):
        schedule = FaultSchedule.view_majority_loss(n)
        suspicions = [e for e in schedule.events if isinstance(e, SuspectDuring)]
        assert {e.target for e in suspicions} == set(range(n - (n - 1) // 2, n))
        assert len({(e.start, e.duration) for e in suspicions}) == 1
