"""Integration tests: atomic broadcast safety under adverse conditions.

These tests exercise larger mixed scenarios (crashes plus wrong suspicions
plus load) and check the uniform atomic broadcast properties on the full
delivery logs:

* *uniform agreement / total order*: the delivery sequences of any two
  processes (including crashed and wrongly excluded ones) are prefixes of
  one another;
* *integrity*: no duplicates, only broadcast messages are delivered;
* *validity*: every message broadcast by a correct process is eventually
  delivered by every correct process.
"""

import functools

import pytest

from repro import QoSConfig, SystemConfig, build_system
from repro.scenarios.faults import CrashAt, FaultSchedule
from tests.conftest import (
    assert_no_duplicates,
    assert_prefix_consistent,
    poisson_broadcasts,
)


def run_scenario(
    algorithm, n, seed, broadcasts, crashes=(), qos=None, until=120_000.0, crash_orderer_of=None
):
    config = SystemConfig(n=n, stack=algorithm, seed=seed, fd=qos or QoSConfig())
    system = build_system(config)
    system.start()
    sent = []
    for time, sender, payload in broadcasts:
        system.broadcast_at(time, sender, payload)
        sent.append((time, sender, payload))
    FaultSchedule([CrashAt(time, pid) for time, pid in crashes]).apply(system)
    if crash_orderer_of is not None:
        crash_the_orderer(system, crash_orderer_of)
    system.run(until=until, max_events=3_000_000)
    return system, sent


def crash_the_orderer(system, payload):
    """Crash the process that ordered ``payload`` at its first A-delivery
    anywhere: under fd the proposer whose value the deciding consensus
    instance chose, under gm the sequencer that numbered it."""

    def on_delivery(abcast, broadcast_id, delivered):
        if delivered != payload or ordered:
            return
        if hasattr(abcast, "_sequencer"):
            orderer = abcast._sequencer
        else:
            (orderer,) = {
                proposer for proposer, ids in abcast.log.batches.values() if broadcast_id in ids
            }
        ordered.append(orderer)
        system.sim.post(0.0, system.crash, orderer)

    ordered = []
    for abcast in system.abcasts:
        abcast.add_delivery_listener(functools.partial(on_delivery, abcast))


class TestSafetyUnderCrashes:
    def test_total_order_with_one_crash(self, algorithm):
        broadcasts = poisson_broadcasts(30, 0.02, senders=[1, 2], seed=3)
        system, _sent = run_scenario(
            algorithm,
            3,
            71,
            broadcasts,
            crashes=[(150.0, 0)],
            qos=QoSConfig(detection_time=20.0),
        )
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)

    def test_validity_with_one_crash(self, algorithm):
        broadcasts = poisson_broadcasts(30, 0.02, senders=[1, 2], seed=5)
        system, sent = run_scenario(
            algorithm,
            3,
            73,
            broadcasts,
            crashes=[(140.0, 0)],
            qos=QoSConfig(detection_time=20.0),
        )
        payloads_sent = {payload for _t, _s, payload in sent}
        for pid in (1, 2):
            delivered = {payload for _bid, payload in system.abcast(pid).delivered}
            assert delivered == payloads_sent

    def test_total_order_n7_three_crashes(self, algorithm):
        broadcasts = poisson_broadcasts(40, 0.03, senders=[0, 1, 2, 3], seed=7)
        system, _sent = run_scenario(
            algorithm,
            7,
            75,
            broadcasts,
            crashes=[(200.0, 6), (400.0, 5), (600.0, 4)],
            qos=QoSConfig(detection_time=30.0),
        )
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        for pid in range(4):
            assert len(sequences[pid]) == 40

    def test_delivery_of_crashed_process_is_prefix(self, algorithm):
        # Uniformity: whatever the crashed process delivered before dying is a
        # prefix of what the correct processes deliver.
        broadcasts = poisson_broadcasts(25, 0.05, senders=[0, 1, 2], seed=11)
        system, _sent = run_scenario(
            algorithm,
            3,
            77,
            broadcasts,
            crashes=[(180.0, 1)],
            qos=QoSConfig(detection_time=15.0),
        )
        assert_prefix_consistent(system.delivery_sequences())


class TestSafetyUnderWrongSuspicions:
    @pytest.mark.parametrize("tmr,tm", [(200.0, 0.0), (300.0, 40.0), (80.0, 5.0)])
    def test_total_order_under_suspicion_storm(self, algorithm, tmr, tm):
        broadcasts = poisson_broadcasts(40, 0.02, senders=[0, 1, 2], seed=13)
        system, sent = run_scenario(
            algorithm,
            3,
            79,
            broadcasts,
            qos=QoSConfig(mistake_recurrence_time=tmr, mistake_duration=tm),
        )
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        # No crash happened: everything must be delivered everywhere.
        payloads_sent = {payload for _t, _s, payload in sent}
        for pid in range(3):
            assert {p for _b, p in system.abcast(pid).delivered} == payloads_sent

    def test_crash_plus_wrong_suspicions(self, algorithm):
        broadcasts = poisson_broadcasts(35, 0.02, senders=[1, 2, 3, 4], seed=17)
        system, _sent = run_scenario(
            algorithm,
            5,
            83,
            broadcasts,
            crashes=[(250.0, 0)],
            qos=QoSConfig(
                detection_time=25.0, mistake_recurrence_time=400.0, mistake_duration=20.0
            ),
        )
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        correct = [1, 2, 3, 4]
        lengths = {len(sequences[pid]) for pid in correct}
        assert lengths == {35}


class TestSafetyWhenTheOriginCrashesMidMulticast:
    """An origin crashes while its DATA multicasts are still on its CPU.

    A multicast handed to the CPU is emitted after a crash, so every correct
    process gets the payloads.  With no relay on suspicion that is all
    reliable broadcast offers, and it is enough: the payloads are ordered and
    delivered even when the process that ordered them crashes too.
    """

    ORIGIN = 3
    BURST = ("mid-0", "mid-1", "mid-2")

    def run(self, algorithm, crash_orderer):
        background = poisson_broadcasts(30, 0.02, senders=[0, 1, 2, 4], seed=19)
        burst_at = 600.0
        broadcasts = sorted(
            background + [(burst_at, self.ORIGIN, payload) for payload in self.BURST]
        )
        system, sent = run_scenario(
            algorithm,
            5,
            89,
            broadcasts,
            # The first DATA multicast is in service on the CPU, the others
            # queued behind it.
            crashes=[(burst_at + 0.5, self.ORIGIN)],
            qos=QoSConfig(detection_time=20.0),
            crash_orderer_of=self.BURST[0] if crash_orderer else None,
        )
        crashed = {pid for pid in range(5) if system.processes[pid].crashed}
        correct = [pid for pid in range(5) if pid not in crashed]
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        # One total order: every correct process delivers the same sequence.
        assert len({tuple(sequences[pid]) for pid in correct}) == 1
        expected = {payload for _t, sender, payload in sent if sender in correct}
        expected.update(self.BURST)
        for pid in correct:
            delivered = {payload for _bid, payload in system.abcast(pid).delivered}
            assert expected <= delivered, f"p{pid}"
        return crashed

    def test_the_origin_crashes_alone(self, algorithm):
        assert self.run(algorithm, crash_orderer=False) == {self.ORIGIN}

    def test_the_orderer_of_its_message_crashes_too(self, algorithm):
        crashed = self.run(algorithm, crash_orderer=True)
        assert len(crashed) == 2 and self.ORIGIN in crashed
