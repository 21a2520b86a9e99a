"""Crash-recovery unit tests: rejoin, catch-up, view changes, FD trust."""

from repro import SystemConfig, build_system
from repro.core.group_membership import MEMBER
from repro.failure_detectors.qos import QoSConfig
from repro.scenarios.faults import CrashAt, FaultSchedule, RecoverAt
from tests.conftest import count_flips


def make_system(algorithm, n=3, seed=5, detection_time=10.0, **overrides):
    config = SystemConfig(
        n=n,
        stack=algorithm,
        seed=seed,
        fd=QoSConfig(detection_time=detection_time),
        **overrides,
    )
    return build_system(config)


def assert_prefix(seq_a, seq_b):
    m = min(len(seq_a), len(seq_b))
    assert seq_a[:m] == seq_b[:m]


class TestRecoveredProcessCatchesUp:
    def test_recovered_process_converges_with_the_group(self, algorithm):
        system = make_system(algorithm)
        system.start()
        for time, sender in [(5.0, 0), (15.0, 1), (100.0, 0), (300.0, 1), (500.0, 0)]:
            system.broadcast_at(time, sender, f"m-{time}-{sender}")
        FaultSchedule([CrashAt(50.0, 2), RecoverAt(250.0, 2)]).apply(system)
        system.run(until=3000.0, max_events=500_000)
        sequences = system.delivery_sequences()
        assert len(sequences[0]) == 5
        assert sequences[2] == sequences[0] == sequences[1]

    def test_recovered_process_can_broadcast_again(self, algorithm):
        system = make_system(algorithm)
        system.start()
        system.broadcast_at(5.0, 0, "before")
        FaultSchedule([CrashAt(20.0, 2), RecoverAt(200.0, 2)]).apply(system)
        system.broadcast_at(1500.0, 2, "from-recovered")
        system.run(until=4000.0, max_events=500_000)
        for pid in range(3):
            payloads = [payload for _bid, payload in system.abcast(pid).delivered]
            assert payloads == ["before", "from-recovered"]

    def test_short_crash_below_detection_time_goes_unnoticed_by_detectors(self, algorithm):
        system = make_system(algorithm, detection_time=50.0)
        flips = count_flips(system.fd_fabric.detector(0))
        system.start()
        system.broadcast_at(5.0, 0, "a")
        FaultSchedule([
            CrashAt(20.0, 2),
            RecoverAt(30.0, 2),  # back before T_D = 50 elapses
        ]).apply(system)
        system.broadcast_at(400.0, 1, "b")
        system.run(until=3000.0, max_events=500_000)
        assert flips[True] == 0
        sequences = system.delivery_sequences()
        assert sequences[2] == sequences[0]
        assert len(sequences[0]) == 2

    def test_double_crash_recover_cycle(self, algorithm):
        system = make_system(algorithm)
        system.start()
        for time, sender in [(5.0, 0), (300.0, 1), (900.0, 0), (1600.0, 1)]:
            system.broadcast_at(time, sender, f"m-{time}")
        FaultSchedule([
            CrashAt(50.0, 2),
            RecoverAt(400.0, 2),
            CrashAt(1000.0, 2),
            RecoverAt(1300.0, 2),
        ]).apply(system)
        system.run(until=5000.0, max_events=800_000)
        sequences = system.delivery_sequences()
        assert len(sequences[0]) == 4
        assert sequences[2] == sequences[0]


class TestRecoveryPayloadRefetch:
    def test_fd_refetches_payload_of_instance_decided_after_catchup(self):
        # m is A-broadcast while p2 is down and its consensus instance is
        # still undecided when p2's recovery catch-up runs: the decision
        # reaches p2 later by reliable broadcast, but the payload must be
        # re-requested explicitly (the trusted origin never relays it).
        system = make_system("fd", detection_time=5.0)
        system.start()
        system.broadcast_at(5.0, 0, "before")
        FaultSchedule([CrashAt(10.0, 2)]).apply(system)
        system.broadcast_at(20.0, 0, "while-down")
        FaultSchedule([RecoverAt(20.5, 2)]).apply(system)
        system.broadcast_at(200.0, 1, "after")
        system.run(until=5000.0, max_events=500_000)
        sequences = system.delivery_sequences()
        assert len(sequences[0]) == 3
        assert sequences[2] == sequences[0]
        payloads = [payload for _bid, payload in system.abcast(2).delivered]
        assert payloads == ["before", "while-down", "after"]


class TestGroupMembershipRejoin:
    def test_recovery_triggers_readmission_view_change(self):
        system = make_system("gm")
        installed = []
        system.membership(0).add_view_listener(installed.append)
        system.start()
        system.broadcast_at(5.0, 0, "a")
        FaultSchedule([CrashAt(50.0, 2), RecoverAt(400.0, 2)]).apply(system)
        system.run(until=3000.0, max_events=500_000)
        membership = system.membership(2)
        assert membership.status == MEMBER
        assert 2 in membership.view.members
        # Exclusion view change + readmission view change both happened.
        assert len(installed) >= 2
        assert membership.view.view_id == system.membership(0).view.view_id

    def test_on_recover_reconciles_back_to_membership(self):
        system = make_system("gm")
        system.start()
        FaultSchedule([CrashAt(50.0, 2)]).apply(system)
        system.run(until=100.0)
        membership = system.membership(2)
        system.recover(2)
        # The recovered process reconciles (stale view change answered with
        # the group's current view, then a state transfer) and is a member
        # of the current view again.
        assert membership.status != MEMBER or membership.view.view_id == 0
        system.run(until=2000.0, max_events=300_000)
        assert membership.status == MEMBER
        assert membership.view.view_id == system.membership(0).view.view_id

    def test_crashed_sequencer_recovers_as_non_sequencer(self):
        system = make_system("gm")
        system.start()
        system.broadcast_at(5.0, 1, "a")
        FaultSchedule([
            CrashAt(50.0, 0),  # the sequencer of the initial view
            RecoverAt(500.0, 0),
        ]).apply(system)
        system.broadcast_at(2000.0, 1, "b")
        system.run(until=6000.0, max_events=800_000)
        membership = system.membership(0)
        assert membership.status == MEMBER
        assert 0 in membership.view.members
        # The recovered ex-sequencer is re-admitted at the back of the view.
        assert membership.view.sequencer != 0
        sequences = system.delivery_sequences()
        assert sequences[0] == sequences[1] == sequences[2]
        assert len(sequences[1]) == 2


class TestFailureDetectorRecovery:
    def test_trust_restored_one_detection_time_after_recovery(self):
        system = make_system("fd", detection_time=20.0)
        system.start()
        FaultSchedule([CrashAt(10.0, 2), RecoverAt(100.0, 2)]).apply(system)
        system.run(until=40.0)
        assert system.fd_fabric.detector(0).is_suspected(2)
        system.run(until=119.0)
        assert system.fd_fabric.detector(0).is_suspected(2)
        system.run(until=121.0)
        assert not system.fd_fabric.detector(0).is_suspected(2)

    def test_recrash_cancels_pending_trust_restoration(self):
        system = make_system("fd", detection_time=20.0)
        system.start()
        FaultSchedule([
            CrashAt(10.0, 2),
            RecoverAt(100.0, 2),
            CrashAt(110.0, 2),  # down again before trust returns at 120
        ]).apply(system)
        system.run(until=500.0)
        assert system.fd_fabric.detector(0).is_suspected(2)

    def test_wrong_suspicion_interrupted_by_crash_is_lifted_on_recovery(self):
        # Begin a wrong-suspicion window whose end event gets cancelled by
        # the monitor's crash: recovery must lift the suspicion instead of
        # leaving it stuck forever (recurrence is effectively disabled, so a
        # lingering suspicion could only be the cancelled window).
        config = SystemConfig(
            n=3,
            stack="fd",
            seed=7,
            fd=QoSConfig(
                detection_time=5.0,
                mistake_recurrence_time=1e12,
                mistake_duration=1e6,
            ),
        )
        system = build_system(config)
        system.start()
        system.run(until=10.0)
        system.fd_fabric._mistake_begins(0, 1)  # white-box: open a long window
        assert system.fd_fabric.detector(0).is_suspected(1)
        system.crash(0)
        system.recover(0)
        assert not system.fd_fabric.detector(0).is_suspected(1)
        system.run(until=100.0)
        assert not system.fd_fabric.detector(0).is_suspected(1)

    def test_mistake_generation_resumes_after_recovery(self):
        config = SystemConfig(
            n=3,
            stack="fd",
            seed=9,
            fd=QoSConfig(
                detection_time=5.0,
                mistake_recurrence_time=50.0,
                mistake_duration=1.0,
            ),
        )
        system = build_system(config)
        flips = count_flips(system.fd_fabric.detector(2))
        system.start()
        FaultSchedule([CrashAt(10.0, 2), RecoverAt(200.0, 2)]).apply(system)
        system.run(until=2000.0, max_events=300_000)
        # The recovered process's own detector makes fresh mistakes again.
        assert flips[True] > 0


class TestPairOverrides:
    def test_only_the_flaky_pair_makes_mistakes(self):
        fd = QoSConfig().with_pair(1, 0, mistake_recurrence_time=50.0, mistake_duration=1.0)
        config = SystemConfig(n=3, stack="fd", seed=9, fd=fd)
        system = build_system(config)
        flips = [count_flips(system.fd_fabric.detector(pid)) for pid in range(3)]
        system.start()
        system.run(until=5000.0, max_events=300_000)
        assert [counts[True] > 0 for counts in flips] == [False, True, False]

    def test_pair_lookup_and_replacement(self):
        config = QoSConfig().with_pair(1, 0, mistake_recurrence_time=100.0)
        assert config.pair(1, 0).mistake_recurrence_time == 100.0
        assert config.pair(0, 1) is config
        assert config.generates_mistakes
        replaced = config.with_pair(1, 0, mistake_recurrence_time=200.0)
        assert len(replaced.pair_overrides) == 1
        assert replaced.pair(1, 0).mistake_recurrence_time == 200.0

    def test_pair_override_inherits_unnamed_fields(self):
        config = QoSConfig(detection_time=10.0).with_pair(
            1, 0, mistake_recurrence_time=100.0
        )
        # Overriding the mistake parameters must not reset the pair's T_D.
        assert config.pair(1, 0).detection_time == 10.0
        import pytest

        with pytest.raises(TypeError):
            QoSConfig().with_pair(1, 0, not_a_field=1.0)

    def test_per_pair_detection_time(self):
        config = SystemConfig(
            n=3,
            stack="fd",
            seed=9,
            fd=QoSConfig(detection_time=10.0).with_pair(1, 2, detection_time=100.0),
        )
        system = build_system(config)
        system.start()
        FaultSchedule([CrashAt(10.0, 2)]).apply(system)
        system.run(until=50.0)
        assert system.fd_fabric.detector(0).is_suspected(2)  # default T_D = 10
        assert not system.fd_fabric.detector(1).is_suspected(2)  # override T_D = 100
        system.run(until=150.0)
        assert system.fd_fabric.detector(1).is_suspected(2)

    def test_nested_overrides_rejected(self):
        import pytest

        outer = QoSConfig().with_pair(1, 0, mistake_recurrence_time=10.0)
        with pytest.raises(ValueError):
            QoSConfig(pair_overrides=(((2, 0), outer),))
