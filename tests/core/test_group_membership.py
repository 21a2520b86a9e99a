"""Unit tests for the group membership service."""


from repro import QoSConfig, SystemConfig, build_system
from repro.core.group_membership import EXCLUDED, JOINING, MEMBER
from repro.scenarios.faults import CrashAt, FaultSchedule


def gm_system(n=3, seed=17, **overrides):
    return build_system(SystemConfig(n=n, stack="gm", seed=seed, **overrides))


class TestInitialView:
    def test_initial_view_contains_everyone(self):
        system = gm_system()
        system.start()
        for pid in range(3):
            membership = system.membership(pid)
            assert membership.view.view_id == 0
            assert membership.view.members == (0, 1, 2)
            assert membership.status == MEMBER
            assert membership.is_member()

    def test_initial_sequencer_is_process_zero(self):
        system = gm_system()
        system.start()
        assert system.membership(0).is_sequencer()
        assert not system.membership(2).is_sequencer()


class TestCrashExclusion:
    def test_crashed_process_removed_from_view(self):
        system = gm_system(fd=QoSConfig(detection_time=10.0))
        system.start()
        FaultSchedule([CrashAt(20.0, 2)]).apply(system)
        system.run(until=1000.0)
        for pid in (0, 1):
            view = system.membership(pid).view
            assert view.members == (0, 1)
            assert view.view_id == 1

    def test_all_members_see_same_view_sequence(self):
        system = gm_system(n=5, fd=QoSConfig(detection_time=10.0))
        views = {pid: [] for pid in range(5)}
        for pid in range(5):
            system.membership(pid).add_view_listener(
                lambda view, _pid=pid: views[_pid].append(view)
            )
        system.start()
        FaultSchedule([CrashAt(20.0, 4), CrashAt(300.0, 3)]).apply(system)
        system.run(until=3000.0)
        survivor_views = [tuple(views[pid]) for pid in (0, 1, 2)]
        assert survivor_views[0] == survivor_views[1] == survivor_views[2]
        assert [v.members for v in survivor_views[0]] == [(0, 1, 2, 3), (0, 1, 2)]

    def test_one_crash_installs_one_view(self):
        system = gm_system(fd=QoSConfig(detection_time=5.0))
        installed = []
        system.membership(0).add_view_listener(installed.append)
        system.start()
        FaultSchedule([CrashAt(10.0, 1)]).apply(system)
        system.run(until=1000.0)
        assert [view.members for view in installed] == [(0, 2)]

    def test_sequencer_crash_promotes_next_member(self):
        system = gm_system(fd=QoSConfig(detection_time=5.0))
        system.start()
        FaultSchedule([CrashAt(10.0, 0)]).apply(system)
        system.run(until=1000.0)
        assert system.membership(1).view.sequencer == 1
        assert system.membership(1).is_sequencer()


class TestWrongSuspicionExclusionAndRejoin:
    def test_wrongly_excluded_process_rejoins(self):
        # A long-lasting wrong suspicion by everyone excludes process 2; when
        # the mistake ends, the process must rejoin the group.
        system = gm_system(fd=QoSConfig())
        system.start()
        system.sim.schedule_at(
            20.0, lambda: [system.fd_fabric.detector(pid).force_suspect(2) for pid in (0, 1)]
        )
        system.sim.schedule_at(
            200.0, lambda: [system.fd_fabric.detector(pid).force_trust(2) for pid in (0, 1)]
        )
        system.run(until=5000.0)
        membership = system.membership(2)
        assert membership.status == MEMBER
        assert 2 in membership.view.members
        assert system.membership(0).view.members == system.membership(2).view.members

    def test_excluded_process_state_catches_up(self):
        system = gm_system(fd=QoSConfig())
        system.start()
        system.sim.schedule_at(
            20.0, lambda: [system.fd_fabric.detector(pid).force_suspect(2) for pid in (0, 1)]
        )
        # Messages delivered while process 2 is excluded.
        for i in range(5):
            system.broadcast_at(60.0 + 10 * i, i % 2, f"while-excluded-{i}")
        system.sim.schedule_at(
            400.0, lambda: [system.fd_fabric.detector(pid).force_trust(2) for pid in (0, 1)]
        )
        system.run(until=10_000.0)
        payloads = [p for _b, p in system.abcast(2).delivered]
        assert payloads == [f"while-excluded-{i}" for i in range(5)]

    def test_instantaneous_mistake_does_not_exclude(self):
        system = gm_system(fd=QoSConfig())
        system.start()

        def blip():
            system.fd_fabric.detector(1).force_suspect(2)
            system.fd_fabric.detector(1).force_trust(2)

        system.sim.schedule_at(20.0, blip)
        system.run(until=2000.0)
        # A view change may have run, but process 2 must still be a member.
        assert 2 in system.membership(0).view.members
        assert system.membership(2).is_member()


class TestViewSynchrony:
    def test_messages_delivered_in_same_view_set(self):
        system = gm_system(fd=QoSConfig(detection_time=10.0))
        system.start()
        for i in range(6):
            system.broadcast_at(1.0 + 3 * i, 1 + i % 2, f"m{i}")
        FaultSchedule([CrashAt(11.0, 0)]).apply(system)
        system.run(until=3000.0)
        delivered_1 = [b for b, _p in system.abcast(1).delivered]
        delivered_2 = [b for b, _p in system.abcast(2).delivered]
        assert delivered_1 == delivered_2

    def test_handler_required_for_state_transfer(self):
        system = gm_system()
        membership = system.membership(0)
        # The sequencer broadcast registered itself as the handler.
        assert membership._handler is system.abcasts[0]


class TestJoinProtocolEdgeCases:
    def test_join_request_from_member_answered_with_view_install(self):
        system = gm_system()
        system.start()
        # Deliver a JOIN_REQ from process 2 (already a member) to process 0:
        # process 0 must answer directly instead of forcing a view change.
        system.abcasts  # ensure built
        gm0 = system.membership(0)
        gm0.on_message(2, ("JOIN_REQ", 0))
        system.run(until=50.0)
        assert system.membership(0).view.view_id == 0

    def test_report_stale_sender_ignores_members(self):
        system = gm_system()
        system.start()
        gm0 = system.membership(0)
        gm0.report_stale_sender(1, 0)  # member, nothing should happen
        assert system.membership(1).status == MEMBER

    def test_status_constants(self):
        assert MEMBER == "member"
        assert EXCLUDED == "excluded"
        assert JOINING == "joining"
