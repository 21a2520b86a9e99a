"""The ordering layers' incremental structures against the scans they replaced.

The sequencer broadcast keeps the batches it still has to acknowledge in a
set, walks only the newly stable batches when the watermark moves, and caches
what it asks of the view; the FD broadcast keeps the union of its in-flight
proposals.  Each replaced a rescan of everything the view (or run) had
accumulated.  These tests pin that the replacement holds the same state at
every call, that the work per message no longer grows with the history, and
the two paths a single acknowledgement cursor would have broken.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import QoSConfig, SystemConfig, build_system
from repro.core.consensus import ConsensusService
from repro.core.fd_broadcast import FDAtomicBroadcast
from repro.core.sequencer_broadcast import SequencerAtomicBroadcast
from repro.scenarios import (
    run_churn_steady,
    run_crash_steady,
    run_gray_degradation,
    run_normal_steady,
    run_partition_transient,
    run_suspicion_steady,
)
from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec

_ACK = "ACK"


@pytest.fixture
def checked(monkeypatch):
    """Wrap the changed methods, class-wide, with the old scans as oracles.

    Everything that inserts into the checked structures is the same code
    before and after the change, so equality after every call of a changed
    method is equality at every event.  Returns the call counts, so a test
    can tell a path was exercised at all.
    """
    calls = Counter()
    acked = {}  # (abcast, view id) -> batches acknowledged: the old _acked_batches

    def acked_in_view(abcast):
        return acked.setdefault((id(abcast), abcast._view_id), set())

    original_send_one = SequencerAtomicBroadcast.send_one

    def send_one(self, destination, body):
        if body[0] == _ACK:
            assert body[1] == self._view_id
            acked_in_view(self).add(body[2])
        original_send_one(self, destination, body)

    original_on_message = SequencerAtomicBroadcast.on_message

    def on_message(self, sender, body):
        view = self.membership.view
        assert self._view_id == view.vid
        assert self._members == view.members
        assert self._member_set == set(view.members)
        assert self._others == tuple(m for m in view.members if m != self.pid)
        assert self._sequencer == view.sequencer
        assert self._majority == view.majority()
        if self.membership.is_member():
            assert self._is_sequencer == self.membership.is_sequencer()
        original_on_message(self, sender, body)

    original_try_ack = SequencerAtomicBroadcast._try_ack_known_batches

    def try_ack(self):
        calls["try_ack"] += 1
        acknowledges = self.uniform and not self._is_sequencer

        def expected():
            return set(self._batch_entries) - acked_in_view(self) if acknowledges else set()

        assert self._unacked_batches == expected()
        if len(self._unacked_batches) > 1:
            calls["several_unacked"] += 1
        original_try_ack(self)
        assert self._unacked_batches == expected()

    original_apply = SequencerAtomicBroadcast._apply_stability

    def apply_stability(self, watermark):
        calls["apply_stability"] += 1
        stable = max(self._stable_watermark, watermark)
        expected = dict(self._unstable)
        if watermark > 0:
            for broadcast_id in list(expected):
                batch = self._batch_of.get(broadcast_id)
                if batch is not None and batch <= stable:
                    del expected[broadcast_id]
        if self._restabilize:
            calls["restabilized"] += 1
        original_apply(self, watermark)
        assert self._unstable == expected
        assert self._stable_watermark == stable
        assert not self._restabilize or watermark <= 0

    original_unproposed = FDAtomicBroadcast._unproposed_pending

    def unproposed_pending(self):
        calls["unproposed"] += 1
        claimed = set()
        for ids in self._inflight_proposals.values():
            assert not claimed & ids
            claimed |= ids
        assert self._claimed == claimed
        return original_unproposed(self)

    original_recover = ConsensusService.on_recover

    def on_recover(self):
        calls["consensus_recover"] += 1
        undecided = [cid for cid, instance in self._instances.items() if not instance.decided]
        assert list(self._undecided) == undecided
        original_recover(self)

    monkeypatch.setattr(SequencerAtomicBroadcast, "send_one", send_one)
    monkeypatch.setattr(SequencerAtomicBroadcast, "on_message", on_message)
    monkeypatch.setattr(SequencerAtomicBroadcast, "_try_ack_known_batches", try_ack)
    monkeypatch.setattr(SequencerAtomicBroadcast, "_apply_stability", apply_stability)
    monkeypatch.setattr(FDAtomicBroadcast, "_unproposed_pending", unproposed_pending)
    monkeypatch.setattr(ConsensusService, "on_recover", on_recover)
    return calls


def config(stack, n=5, seed=3):
    return SystemConfig(n=n, stack=stack, seed=seed)


@pytest.mark.parametrize("stack", ["gm", "gm-reform", "gm-nonuniform"])
class TestSequencerStateEquivalence:
    def test_normal_steady(self, checked, stack):
        result = run_normal_steady(config(stack), 300.0, num_messages=300)
        assert result.undelivered == 0
        assert checked["apply_stability"] > 0

    def test_crash_steady(self, checked, stack):
        result = run_crash_steady(config(stack), 300.0, crashed=(4,), num_messages=200)
        assert result.undelivered == 0

    def test_suspicion_steady(self, checked, stack):
        run_suspicion_steady(
            config(stack), 100.0, mistake_recurrence_time=200.0, mistake_duration=5.0,
            num_messages=150,
        )
        assert checked["try_ack"] > 0

    def test_churn(self, checked, stack):
        run_churn_steady(
            config(stack), 100.0, churn_rate=4.0, mean_downtime=100.0, detection_time=10.0,
            num_messages=200,
        )
        assert checked["consensus_recover"] > 0

    def test_partition_and_heal(self, checked, stack):
        run_partition_transient(
            config(stack), 100.0, partition_duration=400.0, detection_time=10.0, num_messages=200
        )
        assert checked["try_ack"] > 0

    def test_lossy_links_force_retransmissions(self, checked, stack):
        run_gray_degradation(
            config(stack), 200.0, degraded_pid=1, degrade_duration=800.0, link_loss=0.3,
            detection_time=10.0, num_messages=250,
        )
        if stack != "gm-nonuniform":
            # A batch waiting for a retransmission while later ones arrive:
            # the state a single cursor cannot represent.
            assert checked["several_unacked"] > 0


@pytest.mark.parametrize("scenario", ["normal", "churn", "partition"])
def test_fd_claimed_set_is_the_union_of_the_inflight_proposals(checked, scenario):
    if scenario == "normal":
        run_normal_steady(config("fd"), 300.0, num_messages=300)
    elif scenario == "churn":
        run_churn_steady(config("fd"), 100.0, churn_rate=4.0, mean_downtime=100.0,
                         detection_time=10.0, num_messages=200)
        assert checked["consensus_recover"] > 0
    else:
        run_partition_transient(config("fd"), 100.0, partition_duration=400.0,
                                detection_time=10.0, num_messages=200)
    assert checked["unproposed"] > 0


class TestWorkIsProportionalToTheMessage:
    """A deterministic bound in place of a timing assertion."""

    def test_batches_examined_grow_linearly_with_the_run(self, monkeypatch):
        examined = Counter()
        original = SequencerAtomicBroadcast._try_ack_known_batches

        def counting(self):
            examined["calls"] += 1
            examined["batches"] += len(self._unacked_batches)
            examined["known"] += len(self._batch_entries)  # what the old scan walked
            original(self)

        monkeypatch.setattr(SequencerAtomicBroadcast, "_try_ack_known_batches", counting)
        messages = 4000
        spec = SteadyStateSpec(
            "normal-steady", SystemConfig(n=3, stack="gm", fd=QoSConfig(), seed=1), 300.0, messages
        )
        result = ScenarioRunner().run_steady(spec)
        assert result.undelivered == 0
        sent = int(messages * 1.2)
        # About one batch examined per message sent (5 062 over 4 800); the
        # old scan walked every batch of the view on each of the ~3 calls per
        # message: 18.6 million, 0.8 x sent^2.
        assert examined["calls"] >= 2 * sent
        assert examined["batches"] <= 2 * sent
        assert examined["known"] >= sent * sent // 2

    def test_unstable_set_stays_small_in_a_long_view(self):
        system = build_system(SystemConfig(n=3, stack="gm", fd=QoSConfig(), seed=1))
        spec = SteadyStateSpec("normal-steady", system.config, 300.0, 2000)
        ScenarioRunner().run_steady_on(system, spec)
        for abcast in system.abcasts:
            assert len(abcast._batch_entries) > 500
            assert len(abcast._unstable) < 50
            assert len(abcast._unacked_batches) <= 2


def quiet_gm_system(n=3):
    system = build_system(SystemConfig(n=n, stack="gm", fd=QoSConfig(), seed=5))
    system.start()
    return system


class TestWhatACursorWouldBreak:
    def sent_by(self, system, pid, kind):
        """Bodies of abcast messages of ``kind`` that ``pid`` sends from now on."""
        bodies = []
        process = system.processes[pid]
        original = process.send

        def recording(protocol, destinations, body):
            if protocol == "abcast" and body[0] == kind:
                bodies.append(body)
            original(protocol, destinations, body)

        process.send = recording
        return bodies

    def test_a_later_batch_overtakes_one_blocked_on_a_missing_payload(self):
        system = quiet_gm_system()
        follower = system.abcasts[1]
        vid = follower._view_id
        acks = self.sent_by(system, 1, _ACK)
        requests = self.sent_by(system, 1, "RETR_REQ")
        first, second = (2, 1), (2, 2)

        # Batch 1 orders a message whose DATA never reached this process.
        follower.on_message(0, ("SEQ", vid, 1, ((1, first),), 0))
        assert follower._unacked_batches == {1}
        assert acks == []
        assert requests == [("RETR_REQ", vid, (first,))]

        # Batch 2 is complete here: it is acknowledged while 1 still waits.
        follower.on_message(2, ("DATA", vid, second, "second"))
        follower.on_message(0, ("SEQ", vid, 2, ((2, second),), 0))
        assert acks == [(_ACK, vid, 2)]
        assert follower._unacked_batches == {1}
        assert len(requests) == 1  # asked once, not on every pass

        # The retransmitted payload releases batch 1 -- exactly once.
        follower.on_message(0, ("RETR_RESP", vid, ((first, "first"),)))
        assert acks == [(_ACK, vid, 2), (_ACK, vid, 1)]
        assert follower._unacked_batches == set()
        follower.on_message(0, ("RETR_RESP", vid, ((first, "first"),)))
        assert len(acks) == 2

        # Delivery still follows the batch order.
        follower.on_message(0, ("DELIVER", vid, 2, 0))
        assert follower.delivered == []
        follower.on_message(0, ("DELIVER", vid, 1, 0))
        assert [payload for _bid, payload in follower.delivered] == ["first", "second"]

    def test_a_duplicate_seq_is_not_acknowledged_twice(self):
        system = quiet_gm_system()
        follower = system.abcasts[2]
        vid = follower._view_id
        acks = self.sent_by(system, 2, _ACK)
        follower.on_message(1, ("DATA", vid, (1, 1), "x"))
        for _ in range(2):
            follower.on_message(0, ("SEQ", vid, 1, ((1, (1, 1)),), 0))
        assert acks == [(_ACK, vid, 1)]

    def test_the_sequencer_and_the_nonuniform_variant_track_nothing(self):
        system = quiet_gm_system()
        for i in range(30):
            system.broadcast_at(1.0 + 10 * i, i % 3, f"m{i}")
        system.run(until=1_000.0)
        assert len(system.abcasts[0]._batch_entries) >= 10
        assert system.abcasts[0]._unacked_batches == set()

        nonuniform = build_system(SystemConfig(n=3, stack="gm-nonuniform", fd=QoSConfig(), seed=5))
        nonuniform.start()
        for i in range(30):
            nonuniform.broadcast_at(1.0 + 10 * i, i % 3, f"m{i}")
        nonuniform.run(until=1_000.0)
        assert all(len(seq) == 30 for seq in nonuniform.delivery_sequences().values())
        assert all(abcast._unacked_batches == set() for abcast in nonuniform.abcasts)

    def test_view_installation_clears_the_pending_state(self):
        system = quiet_gm_system()
        follower = system.abcasts[1]
        vid = follower._view_id
        follower.on_message(0, ("SEQ", vid, 1, ((1, (2, 1)),), 0))
        follower.on_message(2, ("DATA", vid, (2, 7), "late"))
        follower._restabilize.append((2, 7))
        assert follower._unacked_batches == {1}

        membership = system.membership(1)
        new_view = membership.view._replace(view_id=1, members=(1, 0, 2))
        membership._install_view(new_view)
        assert follower._unacked_batches == set()
        assert follower._restabilize == []
        assert follower._batch_entries == {} and follower._unstable == {}
        # The cached role follows the view: this process now sequences.
        assert follower._is_sequencer and follower._sequencer == 1
        assert follower._others == (0, 2) and follower._majority == 2
        # A batch of the old view is stale now, not pending.
        follower.on_message(0, ("SEQ", vid, 2, ((2, (2, 2)),), 0))
        assert follower._unacked_batches == set()

    def test_data_after_stability_is_dropped_again_by_the_next_update(self):
        system = quiet_gm_system()
        follower = system.abcasts[1]
        vid = follower._view_id
        first, second = (2, 1), (2, 2)
        follower.on_message(0, ("SEQ", vid, 1, ((1, first),), 0))
        follower.on_message(0, ("RETR_RESP", vid, ((first, "first"),)))
        # Batch 1 went stable (everyone acknowledged) before its DELIVER or
        # its original DATA made it here.
        follower.on_message(0, ("SEQ", vid, 2, ((2, second),), 1))
        assert first not in follower._unstable and second in follower._unstable
        follower.on_message(2, ("DATA", vid, first, "first"))
        assert follower._unstable[first] == 1  # back in, as before the change
        follower.on_message(0, ("DELIVER", vid, 1, 1))
        assert first not in follower._unstable and second in follower._unstable
        assert follower._restabilize == []


# ------------------------------------------------------------------ group membership


@pytest.fixture
def checked_membership(monkeypatch):
    """The per-member ``_suspects`` scans as oracles of the suspected-set reads.

    ``_maybe_propose`` used to list every member it still awaited and
    ``_check_pending_triggers`` walked the view, each through one detector
    call per member; both now read the suspected set once.  The old
    expressions, evaluated before each call, must predict what the call does.
    """
    from repro.core.group_membership import MEMBER, VIEW_CHANGE_IN_PROGRESS, GroupMembership

    calls = Counter()
    proposed_value = {}

    original_propose = ConsensusService.propose

    def propose(self, cid, value, **kwargs):
        proposed_value[id(self)] = (cid, value)
        return original_propose(self, cid, value, **kwargs)

    original_maybe_propose = GroupMembership._maybe_propose

    def maybe_propose(self):
        calls["maybe_propose"] += 1
        view = self._view
        open_change = self._status == VIEW_CHANGE_IN_PROGRESS and not self._proposed
        missing = [
            member
            for member in view.members
            if member not in self._syncs and not self._suspects(member)
        ]
        expected = open_change and not missing and len(self._syncs) >= view.majority()
        joiners = tuple(
            sorted(
                j
                for j in (self._joiners_seen | self._pending_joins)
                if j not in view.members and not self._suspects(j)
            )
        )
        survivors = tuple(m for m in view.members if m in self._syncs)
        vid = view.vid
        already = self._proposed
        original_maybe_propose(self)
        if expected:
            calls["proposed"] += 1
            calls["proposed_past_a_suspect"] += len(survivors) < len(view.members)
            cid, (_pid, (new_members, _unstable)) = proposed_value[id(self.consensus)]
            assert cid == ("vc", vid)
            assert new_members == survivors + joiners
        elif self._view.vid == vid:
            # Not proposing leaves the flag alone (proposing may go on to
            # install the next view within the call, which resets it).
            assert self._proposed == already

    original_check = GroupMembership._check_pending_triggers

    def check_pending_triggers(self):
        calls["check_triggers"] += 1
        suspected_member = any(
            self._suspects(member) for member in self._view.members if member != self.pid
        )
        joinable = any(not self._suspects(j) for j in self._pending_joins)
        expected = self._status == MEMBER and (suspected_member or joinable)
        was_member = self._status == MEMBER
        original_check(self)
        if was_member:
            calls["triggered"] += expected
            assert (self._status != MEMBER) == expected

    monkeypatch.setattr(ConsensusService, "propose", propose)
    monkeypatch.setattr(GroupMembership, "_maybe_propose", maybe_propose)
    monkeypatch.setattr(GroupMembership, "_check_pending_triggers", check_pending_triggers)
    return calls


@pytest.mark.parametrize("stack", ["gm", "gm-reform"])
class TestMembershipSuspectedSetEquivalence:
    def test_wrong_suspicions(self, checked_membership, stack):
        run_suspicion_steady(
            config(stack, n=7), 100.0, mistake_recurrence_time=200.0, mistake_duration=5.0,
            num_messages=150,
        )
        assert checked_membership["proposed_past_a_suspect"] > 0
        assert checked_membership["triggered"] > 0

    def test_churn_with_rejoins(self, checked_membership, stack):
        run_churn_steady(
            config(stack), 100.0, churn_rate=4.0, mean_downtime=100.0, detection_time=10.0,
            num_messages=200,
        )
        assert checked_membership["proposed"] > 0
        assert checked_membership["check_triggers"] > 0

    def test_partition_and_heal(self, checked_membership, stack):
        run_partition_transient(
            config(stack), 100.0, partition_duration=400.0, detection_time=10.0, num_messages=200
        )
        assert checked_membership["proposed"] > 0


def test_a_sync_reads_the_detector_once_at_n15(monkeypatch):
    """Clock-free bound: detector reads per ``_maybe_propose``, not per member.

    At n = 15 a view change brings up to 15 SYNCs to each of 15 processes;
    the per-member scan asked the detector about every member not yet
    synced, on each of them.
    """
    from repro.core.group_membership import GroupMembership
    from repro.failure_detectors.interface import FailureDetector

    work = Counter()
    inside = [False]
    original = GroupMembership._maybe_propose

    def maybe_propose(self):
        work["calls"] += 1
        # What the old comprehension asked the detector: one call per unsynced member.
        work["old_reads"] += sum(1 for m in self._view.members if m not in self._syncs)
        inside[0] = True
        try:
            original(self)
        finally:
            inside[0] = False

    def counting(name):
        method = getattr(FailureDetector, name)

        def counted(self, *args):
            work["reads"] += inside[0]
            return method(self, *args)

        return counted

    monkeypatch.setattr(GroupMembership, "_maybe_propose", maybe_propose)
    monkeypatch.setattr(FailureDetector, "is_suspected", counting("is_suspected"))
    monkeypatch.setattr(FailureDetector, "suspected", counting("suspected"))
    result = run_suspicion_steady(
        SystemConfig(n=15, stack="gm", seed=1), 20.0, mistake_recurrence_time=200.0,
        mistake_duration=5.0, num_messages=150,
    )
    assert result.measured == 150
    assert work["calls"] > 1000
    assert work["reads"] <= work["calls"]
    assert work["old_reads"] >= 5 * work["calls"]
