"""Unit tests for the QoS failure detector model (T_D, T_MR, T_M)."""

import math

import pytest

from repro.failure_detectors.qos import QoSConfig, QoSFailureDetectorFabric
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.rng import RandomStreams
from tests.conftest import count_flips


def build_fabric(n=3, seed=1, scan_interval=None, **qos):
    sim = Simulator()
    network = Network(sim, NetworkConfig(n=n))
    for pid in range(n):
        network.attach(pid, lambda p, m: None)
    fabric = QoSFailureDetectorFabric(
        sim, network, RandomStreams(seed), QoSConfig(**qos), scan_interval=scan_interval
    )
    return sim, network, fabric


class TestQoSConfig:
    def test_defaults_produce_no_mistakes(self):
        config = QoSConfig()
        assert not config.generates_mistakes
        assert config.detection_time == 0.0

    def test_finite_recurrence_generates_mistakes(self):
        assert QoSConfig(mistake_recurrence_time=100.0).generates_mistakes

    def test_negative_detection_time_rejected(self):
        with pytest.raises(ValueError):
            QoSConfig(detection_time=-1.0)

    def test_zero_recurrence_rejected(self):
        with pytest.raises(ValueError):
            QoSConfig(mistake_recurrence_time=0.0)

    def test_negative_mistake_duration_rejected(self):
        with pytest.raises(ValueError):
            QoSConfig(mistake_duration=-5.0)


class TestCrashDetection:
    def test_crash_detected_after_detection_time(self):
        sim, network, fabric = build_fabric(detection_time=25.0)
        fabric.start()
        sim.schedule(10.0, network.crash, 2)
        sim.run(until=34.9)
        assert not fabric.detector(0).is_suspected(2)
        sim.run(until=100.0)
        assert fabric.detector(0).is_suspected(2)
        assert fabric.detector(1).is_suspected(2)

    def test_detection_time_zero_is_immediate(self):
        sim, network, fabric = build_fabric(detection_time=0.0)
        fabric.start()
        sim.schedule(10.0, network.crash, 1)
        sim.run(until=10.0)
        assert fabric.detector(0).is_suspected(1)

    def test_crashed_process_suspected_permanently(self):
        sim, network, fabric = build_fabric(detection_time=0.0, mistake_recurrence_time=5.0)
        fabric.start()
        network.crash(2)
        sim.run(until=500.0)
        assert fabric.detector(0).is_suspected(2)
        assert fabric.detector(1).is_suspected(2)

    def test_suspect_permanently_helper(self):
        sim, _network, fabric = build_fabric(detection_time=100.0)
        fabric.suspect_permanently(1)
        assert fabric.detector(0).is_suspected(1)
        assert fabric.detector(2).is_suspected(1)


class TestWrongSuspicions:
    def test_no_mistakes_with_infinite_recurrence(self):
        sim, _network, fabric = build_fabric()
        flips = [count_flips(fabric.detector(pid)) for pid in range(3)]
        fabric.start()
        sim.run(until=10_000.0)
        assert all(counts[True] == 0 for counts in flips)

    def test_mistake_rate_roughly_matches_recurrence_time(self):
        sim, _network, fabric = build_fabric(
            n=2, mistake_recurrence_time=100.0, mistake_duration=0.0, seed=3
        )
        flips = count_flips(fabric.detector(0))
        fabric.start()
        sim.run(until=100_000.0)
        events = flips[True]
        # Expect about 1000 mistakes; allow generous statistical slack.
        assert 700 < events < 1300

    def test_mistakes_have_requested_duration(self):
        sim, _network, fabric = build_fabric(
            n=2, mistake_recurrence_time=500.0, mistake_duration=50.0, seed=5
        )
        detector = fabric.detector(0)
        durations = []
        state = {}

        def listener(pid, suspected):
            if suspected:
                state[pid] = sim.now
            elif pid in state:
                durations.append(sim.now - state.pop(pid))

        detector.add_listener(listener)
        fabric.start()
        sim.run(until=200_000.0)
        assert durations, "expected some completed mistakes"
        mean = sum(durations) / len(durations)
        assert 30.0 < mean < 75.0

    def test_zero_duration_mistake_still_notifies(self):
        sim, _network, fabric = build_fabric(
            n=2, mistake_recurrence_time=50.0, mistake_duration=0.0, seed=7
        )
        events = []
        fabric.detector(0).add_listener(lambda pid, s: events.append((sim.now, pid, s)))
        fabric.start()
        sim.run(until=1000.0)
        assert events, "instantaneous mistakes must still fire listeners"
        # Every suspicion is immediately followed by a trust at the same time.
        suspicions = [e for e in events if e[2]]
        trusts = [e for e in events if not e[2]]
        assert len(suspicions) == len(trusts)
        assert not fabric.detector(0).is_suspected(1)

    def test_mistakes_stop_after_crash(self):
        sim, network, fabric = build_fabric(
            n=2, detection_time=0.0, mistake_recurrence_time=10.0, mistake_duration=5.0, seed=9
        )
        fabric.start()
        sim.schedule(100.0, network.crash, 1)
        sim.run(until=10_000.0)
        detector = fabric.detector(0)
        # Once crashed, the suspicion is permanent: no trust event afterwards.
        assert detector.is_suspected(1)

    @pytest.mark.parametrize("scan_interval", [None, 1.0])
    def test_a_mistake_ended_early_does_not_end_the_next_one(self, scan_interval):
        """``force_trust`` ends a mistake before its end transition fires, so
        the pair's next mistake arms an end while the first is pending: it
        replaces that one, and the new mistake lasts its own drawn duration
        (on the scan grid in batched mode)."""
        uniform = RandomStreams(3).stream("fd/0/1/duration").random
        first, second = (-math.log(1.0 - uniform()) * 100.0 for _ in range(2))
        assert first < 1.0 + second  # the first end would cut the second mistake short
        sim, _network, fabric = build_fabric(
            seed=3, mistake_recurrence_time=1e12, mistake_duration=100.0,
            scan_interval=scan_interval,
        )
        trusted = []
        fabric.detector(0).add_listener(
            lambda pid, suspected: None if suspected else trusted.append(sim.now)
        )
        fabric.start()
        fabric._mistake_begins(0, 1)
        fabric.detector(0).force_trust(1)
        sim.run(until=1.0)
        fabric._mistake_begins(0, 1)
        sim.run(until=1e6)
        expected = 1.0 + second if scan_interval is None else math.ceil(1.0 + second)
        assert trusted == [0.0, expected]

    def test_pairs_are_independent(self):
        sim, _network, fabric = build_fabric(
            n=3, mistake_recurrence_time=100.0, mistake_duration=0.0, seed=11
        )
        flips = [count_flips(fabric.detector(pid)) for pid in range(3)]
        fabric.start()
        sim.run(until=20_000.0)
        counts = [flips[pid][True] for pid in range(3)]
        assert all(count > 0 for count in counts)
        assert len(set(counts)) > 1, "independent streams should not be identical"
