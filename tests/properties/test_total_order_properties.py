"""Property-based tests of the atomic broadcast invariants.

Random workloads, crash schedules and failure detector behaviours are
generated with hypothesis; for every generated scenario the uniform atomic
broadcast properties must hold for both algorithms:

* total order (delivery sequences are prefixes of one another),
* integrity (no duplicates, no invented messages),
* validity (messages from correct senders reach every correct process).

The scenarios are kept small so the whole suite stays fast, but each example
still runs a complete simulation with contention, crashes and suspicions.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import QoSConfig, SystemConfig, build_system
from repro.scenarios.faults import (
    CorrelatedCrash,
    CrashAt,
    DegradeAt,
    FaultSchedule,
    RecoverAt,
    RestoreAt,
)
from tests.conftest import assert_no_duplicates, assert_prefix_consistent


@st.composite
def scenarios(draw):
    n = draw(st.sampled_from([3, 5]))
    algorithm = draw(st.sampled_from(["fd", "gm"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    message_count = draw(st.integers(min_value=1, max_value=12))
    arrivals = []
    time = 1.0
    for index in range(message_count):
        time += draw(st.floats(min_value=0.1, max_value=40.0))
        sender = draw(st.integers(min_value=0, max_value=n - 1))
        arrivals.append((time, sender, f"m{index}"))
    crash = draw(st.booleans())
    crash_plan = []
    if crash:
        crash_time = draw(st.floats(min_value=5.0, max_value=time + 20.0))
        crash_pid = draw(st.integers(min_value=0, max_value=n - 1))
        crash_plan.append((crash_time, crash_pid))
    mistakes = draw(st.booleans())
    if mistakes:
        qos = QoSConfig(
            detection_time=draw(st.sampled_from([0.0, 10.0, 30.0])),
            mistake_recurrence_time=draw(st.sampled_from([150.0, 400.0, 1000.0])),
            mistake_duration=draw(st.sampled_from([0.0, 5.0, 30.0])),
        )
    else:
        qos = QoSConfig(detection_time=draw(st.sampled_from([0.0, 10.0, 30.0])))
    return n, algorithm, seed, arrivals, crash_plan, qos


def run_generated(n, algorithm, seed, arrivals, crash_plan, qos):
    system = build_system(SystemConfig(n=n, stack=algorithm, seed=seed, fd=qos))
    system.start()
    for time, sender, payload in arrivals:
        system.broadcast_at(time, sender, payload)
    FaultSchedule([CrashAt(time, pid) for time, pid in crash_plan]).apply(system)
    system.run(until=60_000.0, max_events=1_500_000)
    return system


def gm_blocked_by_view_majority_loss(system, crashed):
    """Whether a GM run ended in the algorithm's documented blocking state.

    The GM algorithm (like the paper's) only guarantees progress while some
    correct member's installed view retains a majority of *alive* members:
    wrong suspicions can shrink the view, and a real crash inside the
    shrunken view then blocks reconfiguration forever even though a global
    majority of processes is alive.  Safety (total order, integrity) still
    holds in that state; only the liveness assertions must be skipped.
    """
    if system.config.stack == "fd":
        return False
    for pid in range(system.config.n):
        if pid in crashed:
            continue
        membership = system.membership(pid)
        if not membership.is_member():
            continue
        view = membership.view
        alive = [member for member in view.members if member not in crashed]
        if len(alive) >= view.majority():
            return False
    return True


#: A replayable schedule that drives plain ``gm`` into the documented
#: view-majority-loss blocking state (found by the random search, pinned
#: here): p0 broadcasts eleven messages, wrong suspicions shrink the view to
#: [0, 1], then p0 crashes -- p1 is left alone in a view it cannot reconfigure
#: and p2 stays excluded.  ``gm-reform`` converges on the same schedule.
VIEW_MAJORITY_LOSS_SCHEDULE = (
    3,
    "gm",
    1,
    [
        (16.0, 0, "m0"),
        (17.0, 0, "m1"),
        (20.0, 0, "m2"),
        (26.0, 0, "m3"),
        (32.0, 0, "m4"),
        (37.0, 0, "m5"),
        (38.0, 0, "m6"),
        (39.0, 0, "m7"),
        (40.0, 0, "m8"),
        (41.0, 0, "m9"),
        (42.0, 0, "m10"),
    ],
    [(62.0, 0)],
    QoSConfig(detection_time=0.0, mistake_recurrence_time=150.0, mistake_duration=30.0),
)


class TestAtomicBroadcastProperties:
    @given(scenario=scenarios())
    @settings(max_examples=25, deadline=None)
    def test_total_order_and_integrity(self, scenario):
        n, algorithm, seed, arrivals, crash_plan, qos = scenario
        system = run_generated(n, algorithm, seed, arrivals, crash_plan, qos)
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        # Integrity: only broadcast messages are delivered.
        sent_payloads = {payload for _t, _s, payload in arrivals}
        for pid in range(n):
            for _bid, payload in system.abcast(pid).delivered:
                assert payload in sent_payloads

    @given(scenario=scenarios())
    @settings(max_examples=25, deadline=None)
    def test_validity_for_correct_senders(self, scenario):
        n, algorithm, seed, arrivals, crash_plan, qos = scenario
        system = run_generated(n, algorithm, seed, arrivals, crash_plan, qos)
        crashed = {pid for _t, pid in crash_plan}
        correct = [pid for pid in range(n) if pid not in crashed]
        if len(correct) <= n // 2:
            return  # no liveness guarantee without a correct majority
        crash_times = {pid: time for time, pid in crash_plan}
        must_deliver = {
            payload
            for time, sender, payload in arrivals
            if sender not in crashed or time < crash_times.get(sender, float("inf"))
        }
        if gm_blocked_by_view_majority_loss(system, crashed):
            return  # documented GM liveness limit: an installed view lost its majority
        # Messages broadcast by processes that never crash must reach every
        # correct process (messages from senders that crash later might or
        # might not make it, so only never-crashed senders are required).
        required = {
            payload for time, sender, payload in arrivals if sender not in crashed
        }
        for pid in correct:
            delivered = {payload for _bid, payload in system.abcast(pid).delivered}
            assert required <= delivered

    @given(scenario=scenarios())
    @example(scenario=VIEW_MAJORITY_LOSS_SCHEDULE)
    @settings(max_examples=15, deadline=None)
    def test_deliveries_identical_across_correct_processes(self, scenario):
        n, algorithm, seed, arrivals, crash_plan, qos = scenario
        system = run_generated(n, algorithm, seed, arrivals, crash_plan, qos)
        crashed = {pid for _t, pid in crash_plan}
        correct = [pid for pid in range(n) if pid not in crashed]
        if len(correct) <= n // 2:
            return
        if gm_blocked_by_view_majority_loss(system, crashed):
            return  # documented GM liveness limit: an installed view lost its majority
        sequences = {pid: system.abcast(pid).delivered_ids() for pid in correct}
        reference = sequences[correct[0]]
        for pid in correct[1:]:
            assert sequences[pid] == reference

    def test_pinned_schedule_blocks_plain_gm_safely(self):
        n, _stack, seed, arrivals, crash_plan, qos = VIEW_MAJORITY_LOSS_SCHEDULE
        system = run_generated(n, "gm", seed, arrivals, crash_plan, qos)
        assert gm_blocked_by_view_majority_loss(system, {0})
        assert_prefix_consistent(system.delivery_sequences())
        assert [len(system.abcast(pid).delivered) for pid in (1, 2)] == [11, 4]

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "gm-reform liveness gap found while pinning this schedule: p1 proposes "
            "the reformation, but the round-1 coordinator p0 is the crashed process "
            "and estimates only travel to coordinators, so the excluded p2 never "
            "hears of the ('reform', 1) instance and p1 waits for a majority of "
            "estimates forever (seeds 2..7 of the same schedule do converge)"
        ),
    )
    def test_pinned_schedule_converges_under_gm_reform(self):
        n, _stack, seed, arrivals, crash_plan, qos = VIEW_MAJORITY_LOSS_SCHEDULE
        system = run_generated(n, "gm-reform", seed, arrivals, crash_plan, qos)
        assert not gm_blocked_by_view_majority_loss(system, {0})
        assert system.abcast(1).delivered_ids() == system.abcast(2).delivered_ids()


@st.composite
def fault_schedules(draw):
    """A random fault schedule that respects f < n/2 at every instant.

    Mixes plain crashes, crash-recovery cycles and correlated crash groups.
    One "slot" of concurrently-down processes is churned through sequential
    crash/recover windows; with n = 5 a second permanently-crashed process or
    a correlated pair may use the remaining budget.

    ``gm-reform`` runs under the same schedules: a slow view change may then
    trigger a (fenced) reformation racing the normal path, and the safety
    properties must survive either winner.
    """
    n = draw(st.sampled_from([3, 5]))
    algorithm = draw(st.sampled_from(["fd", "gm", "gm-reform"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    detection_time = draw(st.sampled_from([0.0, 5.0, 20.0]))

    message_count = draw(st.integers(min_value=2, max_value=10))
    arrivals = []
    time = 1.0
    for index in range(message_count):
        time += draw(st.floats(min_value=0.5, max_value=60.0))
        sender = draw(st.integers(min_value=0, max_value=n - 1))
        arrivals.append((time, sender, f"m{index}"))

    schedule = FaultSchedule()
    ever_crashed = set()
    budget = (n - 1) // 2

    # Sequential crash/recovery windows of one churned process.
    churned = draw(st.integers(min_value=0, max_value=n - 1))
    cursor = draw(st.floats(min_value=5.0, max_value=50.0))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        downtime = draw(st.floats(min_value=1.0, max_value=120.0))
        schedule.add(CrashAt(cursor, churned)).add(RecoverAt(cursor + downtime, churned))
        ever_crashed.add(churned)
        cursor += downtime + draw(st.floats(min_value=40.0, max_value=150.0))

    if budget >= 2 and draw(st.booleans()):
        # Use the remaining budget for a permanent fault that never overlaps
        # more than the bound: either one extra crash or a correlated pair
        # when the churned slot is already closed (no windows drawn).
        candidates = sorted(set(range(n)) - {churned})
        extra = draw(st.sampled_from(candidates))
        if not ever_crashed and draw(st.booleans()):
            partner = draw(st.sampled_from([c for c in candidates if c != extra]))
            schedule.add(
                CorrelatedCrash(draw(st.floats(min_value=5.0, max_value=300.0)),
                                (extra, partner))
            )
            ever_crashed.update((extra, partner))
        else:
            schedule.add(CrashAt(draw(st.floats(min_value=5.0, max_value=300.0)), extra))
            ever_crashed.add(extra)

    return n, algorithm, seed, detection_time, arrivals, schedule, ever_crashed


class TestFaultScheduleProperties:
    """Any schedule respecting f < n/2 preserves total order and agreement."""

    def run_schedule(self, n, algorithm, seed, detection_time, arrivals, schedule):
        config = SystemConfig(
            n=n,
            stack=algorithm,
            seed=seed,
            fd=QoSConfig(detection_time=detection_time),
        )
        system = build_system(config)
        schedule.apply_pre(system)
        system.start()
        for time, sender, payload in arrivals:
            system.broadcast_at(time, sender, payload)
        schedule.schedule(system)
        system.run(until=60_000.0, max_events=1_500_000)
        return system

    @given(case=fault_schedules())
    @settings(max_examples=25, deadline=None)
    def test_total_order_is_preserved(self, case):
        n, algorithm, seed, detection_time, arrivals, schedule, _ever = case
        assert schedule.max_concurrent_crashes() <= (n - 1) // 2
        system = self.run_schedule(n, algorithm, seed, detection_time, arrivals, schedule)
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)

    @given(case=fault_schedules())
    @settings(max_examples=25, deadline=None)
    def test_agreement_among_never_crashed_processes(self, case):
        n, algorithm, seed, detection_time, arrivals, schedule, ever_crashed = case
        system = self.run_schedule(n, algorithm, seed, detection_time, arrivals, schedule)
        stable = [pid for pid in range(n) if pid not in ever_crashed]
        sequences = {pid: system.abcast(pid).delivered_ids() for pid in stable}
        reference = sequences[stable[0]]
        for pid in stable[1:]:
            assert sequences[pid] == reference
        # Validity: messages from never-crashed senders reach every
        # never-crashed process.
        required = {
            payload for _t, sender, payload in arrivals if sender not in ever_crashed
        }
        for pid in stable:
            delivered = {payload for _bid, payload in system.abcast(pid).delivered}
            assert required <= delivered

    def test_recovered_member_receives_full_delivery_prefix(self):
        """Regression: the gm rejoin state-transfer race (hypothesis-found).

        Process 1 acknowledges the batch carrying m0 and crashes before the
        DELIVER arrives; the batch goes stable (its ack was the last one),
        which removes m0 from every member's unstable set.  On recovery p1
        is still suspected, so the view change excludes it and its decided
        union contains only m1 -- historically p1 delivered that union
        (m1 without m0) and the join state transfer, indexed by the
        joiner's delivered count, then skipped m0 forever.  Fixed by (a)
        not delivering the union on the excluded side and (b) re-adding
        acknowledged-but-undelivered messages to the recovering process's
        own unstable set before its resync SYNC.
        """
        schedule = FaultSchedule(
            [CrashAt(time=7.0, pid=1, permanent_suspicion=False), RecoverAt(time=28.0, pid=1)]
        )
        system = self.run_schedule(
            3, "gm", 0, 20.0, [(2.0, 0, "m0"), (3.0, 0, "m1")], schedule
        )
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        # The recovered process must end with the full log, not a mid-log
        # suffix: both messages, in order.
        recovered = [payload for _bid, payload in system.abcast(1).delivered]
        assert recovered == ["m0", "m1"]

    def test_recovery_before_detection_receives_full_delivery_prefix(self):
        """Companion regression: rejoin through the *member* resync path.

        Recovering before the failure detector suspects the process keeps
        it a trusted member, so it takes part in the resync view change
        directly; without the ``on_member_recovered`` re-advertisement its
        own SYNC would omit the acknowledged-but-undelivered stable batch
        and the decided union could still start past its prefix.
        """
        schedule = FaultSchedule(
            [CrashAt(time=7.0, pid=1, permanent_suspicion=False), RecoverAt(time=15.0, pid=1)]
        )
        system = self.run_schedule(
            3, "gm", 0, 20.0, [(2.0, 0, "m0"), (3.0, 0, "m1")], schedule
        )
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        recovered = [payload for _bid, payload in system.abcast(1).delivered]
        assert recovered == ["m0", "m1"]


@st.composite
def majority_loss_cases(draw):
    """The canonical view-majority-loss state plus a random workload."""
    n = draw(st.sampled_from([3, 5]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    reformation_timeout = draw(st.sampled_from([300.0, 500.0, 900.0]))
    message_count = draw(st.integers(min_value=1, max_value=8))
    arrivals = []
    time = 1.0
    for index in range(message_count):
        # Spread arrivals across the pre-block, blocked and reformed phases.
        time += draw(st.floats(min_value=10.0, max_value=600.0))
        sender = draw(st.integers(min_value=0, max_value=n - 1))
        arrivals.append((time, sender, f"m{index}"))
    return n, seed, reformation_timeout, arrivals


class TestReformationProperties:
    """The state flagged by ``gm_blocked_by_view_majority_loss`` recovers
    under ``gm-reform``: a successor view is installed, total order and
    agreement hold through the reformation, and no split-brain survives
    (every alive member converges on one view of the reformed epoch)."""

    def run_blocked(self, n, stack, seed, reformation_timeout, arrivals):
        config = SystemConfig(
            n=n,
            stack=stack,
            seed=seed,
            fd=QoSConfig(detection_time=10.0),
            # Plain gm has no reformation window: giving it one is an error.
            **({"reformation_timeout": reformation_timeout} if stack == "gm-reform" else {}),
        )
        system = build_system(config)
        system.start()
        schedule = FaultSchedule.view_majority_loss(n)
        crashed = {
            event.pid for event in schedule.events if isinstance(event, CrashAt)
        }
        schedule.apply(system)
        for time, sender, payload in arrivals:
            system.broadcast_at(time, sender, payload)
        system.run(until=60_000.0, max_events=1_500_000)
        return system, crashed

    @given(case=majority_loss_cases())
    @settings(max_examples=20, deadline=None)
    def test_blocked_state_recovers_under_gm_reform(self, case):
        n, seed, reformation_timeout, arrivals = case
        system, crashed = self.run_blocked(
            n, "gm-reform", seed, reformation_timeout, arrivals
        )
        # The very state that blocks the plain GM stacks is resolved.
        assert not gm_blocked_by_view_majority_loss(system, crashed)
        alive = [pid for pid in range(n) if pid not in crashed]
        members = [pid for pid in alive if system.membership(pid).is_member()]
        views = {system.membership(pid).view for pid in members}
        # No split-brain: one reformed view, every alive process inside it.
        assert len(views) == 1
        (view,) = views
        assert view.epoch >= 1
        assert set(members) == set(view.members) == set(alive)
        # Safety through the reformation: total order and integrity...
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        # ...and agreement plus validity among the alive processes: every
        # alive sender's messages deliver everywhere, identically.
        logs = {pid: system.abcast(pid).delivered_ids() for pid in alive}
        reference = logs[alive[0]]
        for pid in alive[1:]:
            assert logs[pid] == reference
        required = {p for _t, s, p in arrivals if s not in crashed}
        for pid in alive:
            delivered = {payload for _bid, payload in system.abcast(pid).delivered}
            assert required <= delivered

    @given(case=majority_loss_cases())
    @settings(max_examples=8, deadline=None)
    def test_blocked_state_stays_blocked_under_plain_gm(self, case):
        n, seed, reformation_timeout, arrivals = case
        system, crashed = self.run_blocked(n, "gm", seed, reformation_timeout, arrivals)
        assert gm_blocked_by_view_majority_loss(system, crashed)
        # Safety still holds in the blocked state.
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)


@st.composite
def partition_cases(draw):
    """A transient minority partition plus a random workload spanning it."""
    n = draw(st.sampled_from([3, 5]))
    stack = draw(st.sampled_from(["gm", "gm-reform"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    start = draw(st.floats(min_value=400.0, max_value=1_500.0))
    duration = draw(st.floats(min_value=500.0, max_value=3_000.0))
    message_count = draw(st.integers(min_value=2, max_value=10))
    arrivals = []
    time = 1.0
    for index in range(message_count):
        # Spread arrivals across the pre-cut, blocked and healed phases.
        time += draw(st.floats(min_value=10.0, max_value=700.0))
        sender = draw(st.integers(min_value=0, max_value=n - 1))
        arrivals.append((time, sender, f"m{index}"))
    return n, stack, seed, start, duration, arrivals


class TestPartitionSafetyProperties:
    """Safety across a transient minority partition.

    The protocol channels are reliable only between mutually reachable
    processes: frames dropped by the partition mask are never retransmitted,
    so the minority side may stay stalled mid-view-change even after the
    heal.  Safety must nevertheless be unconditional -- the minority never
    delivers past the epoch fence while cut off, and no interleaving of
    cut, suspicion, view change, reformation and heal ever produces two
    total orders.
    """

    #: Grace period for frames already on a receiving CPU when the mask
    #: lands (the drop happens at transmission time, so only already
    #: received frames can still deliver on the minority side).
    SETTLE = 50.0

    def run_partitioned(self, n, stack, seed, start, duration, arrivals):
        system = build_system(
            SystemConfig(
                n=n,
                stack=stack,
                seed=seed,
                fd=QoSConfig(detection_time=10.0),
                reformation_timeout=500.0,
            )
        )
        deliveries = []
        system.add_delivery_listener(
            lambda pid, bid, _payload: deliveries.append((system.sim.now, pid, bid))
        )
        system.start()
        FaultSchedule.partition_transient(n, start, duration).apply(system)
        for time, sender, payload in arrivals:
            system.broadcast_at(time, sender, payload)
        system.run(until=60_000.0, max_events=1_500_000)
        minority = set(range(n - (n - 1) // 2, n))
        return system, deliveries, minority

    @given(case=partition_cases())
    @settings(max_examples=15, deadline=None)
    def test_minority_never_delivers_past_the_epoch_fence(self, case):
        n, stack, seed, start, duration, arrivals = case
        system, deliveries, minority = self.run_partitioned(
            n, stack, seed, start, duration, arrivals
        )
        # While cut off the minority cannot gather a view (or reformation)
        # majority, so nothing new may deliver on its side of the fence.
        fenced = [
            (time, pid, bid)
            for time, pid, bid in deliveries
            if pid in minority and start + self.SETTLE <= time <= start + duration
        ]
        assert fenced == [], f"minority delivered past the fence: {fenced}"
        # The minority's log stays a prefix of the majority's single order.
        sequences = system.delivery_sequences()
        majority_log = sequences[0]
        for pid in minority:
            assert sequences[pid] == majority_log[: len(sequences[pid])]

    @given(case=partition_cases())
    @settings(max_examples=15, deadline=None)
    def test_healing_converges_to_one_total_order(self, case):
        n, stack, seed, start, duration, arrivals = case
        system, _deliveries, minority = self.run_partitioned(
            n, stack, seed, start, duration, arrivals
        )
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        # The whole group converges on one complete identical order: the
        # majority progresses through the cut, and after the heal the
        # minority re-enters (re-announced view change -> NOT_MEMBER ->
        # join protocol -> prefix-indexed state transfer; the prefix fence
        # keeps it off the reform union's fast path) and catches all the
        # way up, including every message that went *stable* on the
        # majority side while the minority was cut off.
        logs = {pid: system.abcast(pid).delivered_ids() for pid in range(n)}
        reference = logs[0]
        for pid in range(1, n):
            assert logs[pid] == reference, (
                f"p{pid} did not converge: {logs[pid]} != {reference}"
            )
        required = {p for _t, s, p in arrivals}
        delivered = {payload for _bid, payload in system.abcast(0).delivered}
        assert required <= delivered


@st.composite
def gray_cases(draw):
    """A gray CPU degradation window plus a random workload spanning it."""
    n = draw(st.sampled_from([3, 5]))
    stack = draw(st.sampled_from(["gm", "gm-reform"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    victim = draw(st.integers(min_value=0, max_value=n - 1))
    factor = draw(st.sampled_from([2.0, 8.0, 32.0]))
    start = draw(st.floats(min_value=100.0, max_value=1_000.0))
    duration = draw(st.floats(min_value=500.0, max_value=3_000.0))
    message_count = draw(st.integers(min_value=2, max_value=10))
    arrivals = []
    time = 1.0
    for index in range(message_count):
        time += draw(st.floats(min_value=10.0, max_value=500.0))
        sender = draw(st.integers(min_value=0, max_value=n - 1))
        arrivals.append((time, sender, f"m{index}"))
    return n, stack, seed, victim, factor, start, duration, arrivals


class TestGrayFailureProperties:
    """A gray-degraded (alive-but-slow) process under the QoS detector.

    The clock-driven QoS detector never confuses slowness with a crash, so
    the degraded process must never be excluded from the group -- and once
    the window ends it catches up to the full total order.
    """

    @given(case=gray_cases())
    @settings(max_examples=15, deadline=None)
    def test_degraded_process_is_never_excluded_and_catches_up(self, case):
        n, stack, seed, victim, factor, start, duration, arrivals = case
        system = build_system(
            SystemConfig(
                n=n, stack=stack, seed=seed, fd=QoSConfig(detection_time=10.0)
            )
        )
        system.start()
        FaultSchedule(
            [DegradeAt(start, victim, factor), RestoreAt(start + duration, victim)]
        ).apply(system)
        for time, sender, payload in arrivals:
            system.broadcast_at(time, sender, payload)
        system.run(until=60_000.0, max_events=1_500_000)
        # Never excluded: every process's installed view still contains the
        # degraded member.
        for pid in range(n):
            assert victim in system.membership(pid).view.members
            assert system.membership(pid).is_member()
        # And it holds the same complete log as everyone else.
        logs = {pid: system.abcast(pid).delivered_ids() for pid in range(n)}
        reference = logs[0]
        for pid in range(1, n):
            assert logs[pid] == reference
        assert len(reference) == len(arrivals)
        assert_no_duplicates(system.delivery_sequences())
