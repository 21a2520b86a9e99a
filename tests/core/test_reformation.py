"""Group reformation after view-majority loss: recovery, fencing, knobs.

The blocked state under test is the GM algorithm's documented liveness
limit (see ``gm_blocked_by_view_majority_loss`` in the property suite):
wrong suspicions shrink the installed view, then a real crash inside the
shrunken view leaves it without a majority of alive members, and no normal
view change can ever decide -- even though a global majority of processes
is alive.  The ``gm-reform`` stack escalates the stalled view change to a
consensus over the full static process set and installs the decided
successor view with an epoch bump that fences out any late normal view
change.
"""

import pytest

from repro import QoSConfig, SystemConfig, build_system
from repro.core.types import View
from repro.scenarios.faults import CrashAt, FaultSchedule
from tests.conftest import assert_no_duplicates, assert_prefix_consistent


def build_blocked_state_system(stack, seed=7, n=3, **config_kwargs):
    """A system driven into the canonical view-majority-loss blocked state."""
    config = SystemConfig(
        n=n, stack=stack, seed=seed, fd=QoSConfig(detection_time=10.0), **config_kwargs
    )
    system = build_system(config)
    system.start()
    FaultSchedule.view_majority_loss(n).apply(system)
    return system


def alive_members(system):
    return [
        pid
        for pid in range(system.config.n)
        if not system.processes[pid].crashed and system.membership(pid).is_member()
    ]


class TestBlockedStateRecovery:
    def test_plain_gm_blocks_forever(self):
        system = build_blocked_state_system("gm", instrument=True)
        system.broadcast_at(1000.0, 0, "after-block")
        system.run(until=30_000.0)
        membership = system.membership(0)
        assert membership.status == "view_change"
        assert membership.view.epoch == 0
        assert system.obs.counter("gm.reformations_proposed") == 0
        # The post-block message is never delivered anywhere.
        assert all(
            "after-block" not in [p for _b, p in system.abcast(pid).delivered]
            for pid in range(3)
        )

    def test_gm_reform_installs_successor_view(self):
        system = build_blocked_state_system("gm-reform", instrument=True)
        proposers = []
        system.obs.subscribe(
            "reformation_proposed", lambda _time, pid, _epoch: proposers.append(pid)
        )
        system.broadcast_at(1000.0, 0, "after-block")
        system.broadcast_at(2000.0, 2, "from-readmitted")
        system.run(until=30_000.0)
        views = {pid: system.membership(pid).view for pid in alive_members(system)}
        assert views, "no alive member ended up operational"
        # Every alive member converged on the same reformed view.
        assert len(set(views.values())) == 1
        view = next(iter(views.values()))
        assert view.epoch == 1
        assert set(views) == set(view.members) == {0, 2}
        assert proposers.count(0) == 1
        # Liveness restored: both the survivor's and the re-admitted
        # process's messages deliver at every member, identically.
        logs = {pid: [p for _b, p in system.abcast(pid).delivered] for pid in (0, 2)}
        assert logs[0] == logs[2]
        assert "after-block" in logs[0] and "from-readmitted" in logs[0]

    def test_gm_reform_recovers_n5(self):
        system = build_blocked_state_system("gm-reform", n=5, seed=3)
        system.broadcast_at(1500.0, 0, "after-block")
        system.run(until=30_000.0)
        members = alive_members(system)
        views = {system.membership(pid).view for pid in members}
        assert len(views) == 1
        (view,) = views
        assert view.epoch >= 1
        alive = [m for m in view.members if not system.processes[m].crashed]
        assert len(alive) >= view.majority()
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)

    def test_recovery_on_heartbeat_fd(self):
        system = build_blocked_state_system("gm-reform", fd_kind="heartbeat")
        system.run(until=30_000.0)
        assert system.membership(0).view.epoch == 1
        assert 2 in system.membership(0).view.members


class TestSplitBrainFencing:
    def test_late_normal_view_change_decision_is_ignored(self):
        """A stale epoch-0 view-change decision must not displace the
        reformed view -- the exact race the epoch fence exists for."""
        system = build_blocked_state_system("gm-reform")
        system.run(until=10_000.0)
        membership = system.membership(0)
        reformed = membership.view
        assert reformed.epoch == 1
        # The view change of view (0, 1) the group was blocked in decides
        # late: replay it against the membership as the consensus layer
        # would.  The fence discards it.
        stale_value = (1, ((0,), ()))
        membership._on_decision(("vc", (0, 1)), stale_value)
        assert membership.view == reformed
        assert membership.is_member()

    def test_reformation_racing_healthy_view_change_converges(self):
        """A spuriously early reformation racing a normal view change must
        not split the group: the higher epoch wins, losers resync."""
        for seed in (1, 5, 11):
            config = SystemConfig(
                n=3,
                stack="gm-reform",
                seed=seed,
                fd=QoSConfig(detection_time=10.0),
                # Far below a view change's consensus round trip, so the
                # reformation fires while the normal view change is healthy
                # and both decisions race.
                reformation_timeout=5.0,
            )
            system = build_system(config)
            system.start()
            FaultSchedule([CrashAt(100.0, 1)]).apply(system)
            for time, sender in ((10.0, 0), (50.0, 2), (400.0, 0), (900.0, 2)):
                system.broadcast_at(time, sender, f"m{time:g}.{sender}")
            system.run(until=30_000.0)
            sequences = system.delivery_sequences()
            assert_prefix_consistent(sequences)
            assert_no_duplicates(sequences)
            members = alive_members(system)
            views = {system.membership(pid).view for pid in members}
            assert len(views) == 1, f"seed {seed}: split views {views}"
            (view,) = views
            assert set(members) == set(view.members) == {0, 2}
            logs = {pid: [p for _b, p in system.abcast(pid).delivered] for pid in members}
            assert logs[0] == logs[2]
            assert {"m10.0", "m50.2", "m400.0", "m900.2"} <= set(logs[0])

    def test_view_identities_order_across_epochs(self):
        assert View(5, (0, 1), epoch=0).vid < View(2, (0,), epoch=1).vid
        assert View(2, (0,), epoch=1).vid < View(3, (0, 2), epoch=1).vid
        assert str(View(2, (0, 2), epoch=1)) == "view#2@e1[0, 2]"


class TestReformationKnobs:
    def test_plain_gm_stacks_never_arm_the_timer(self):
        for stack in ("gm", "gm-nonuniform"):
            system = build_system(SystemConfig(n=3, stack=stack, seed=1))
            assert system.membership(0).reformation_timeout is None

    def test_gm_reform_reads_the_config_knob(self):
        system = build_system(
            SystemConfig(n=3, stack="gm-reform", reformation_timeout=750.0)
        )
        assert system.membership(0).reformation_timeout == 750.0

    def test_invalid_reformation_timeout_rejected(self):
        with pytest.raises(ValueError, match="reformation_timeout"):
            SystemConfig(n=3, stack="gm-reform", reformation_timeout=0.0)

    def test_failure_free_run_never_reforms(self):
        system = build_system(SystemConfig(n=3, stack="gm-reform", seed=2, instrument=True))
        system.start()
        for time, sender in ((1.0, 0), (5.0, 1), (9.0, 2)):
            system.broadcast_at(time, sender, f"m{sender}")
        system.run(until=5_000.0)
        assert system.obs.counter("gm.reformations_proposed") == 0
        for pid in range(3):
            assert system.membership(pid).view == View(0, (0, 1, 2))
        assert all(len(seq) == 3 for seq in system.delivery_sequences().values())
