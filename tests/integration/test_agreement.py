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

import pytest

from repro import QoSConfig, SystemConfig, build_system
from repro.scenarios.faults import CrashAt, FaultSchedule
from tests.conftest import (
    assert_no_duplicates,
    assert_prefix_consistent,
    poisson_broadcasts,
)


def run_scenario(algorithm, n, seed, broadcasts, crashes=(), qos=None, until=120_000.0):
    config = SystemConfig(n=n, stack=algorithm, seed=seed, fd=qos or QoSConfig())
    system = build_system(config)
    system.start()
    sent = []
    for time, sender, payload in broadcasts:
        system.broadcast_at(time, sender, payload)
        sent.append((time, sender, payload))
    FaultSchedule([CrashAt(time, pid) for time, pid in crashes]).apply(system)
    system.run(until=until, max_events=3_000_000)
    return system, sent


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
