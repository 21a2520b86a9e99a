"""Unit tests for the perfect failure detector fabric."""

import pytest

from repro.failure_detectors.fabric import CrashDetectionFabric
from repro.failure_detectors.perfect import PerfectFailureDetectorFabric
from repro.failure_detectors.qos import MISTAKE_BEGINS, MISTAKE_ENDS, QoSFailureDetectorFabric
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig


def build(n=3, detection_time=0.0):
    sim = Simulator()
    network = Network(sim, NetworkConfig(n=n))
    for pid in range(n):
        network.attach(pid, lambda p, m: None)
    fabric = PerfectFailureDetectorFabric(sim, network, detection_time=detection_time)
    fabric.start()
    return sim, network, fabric


class TestPerfectFailureDetector:
    def test_never_suspects_correct_processes(self):
        sim, _network, fabric = build()
        sim.run(until=100_000.0)
        for pid in range(3):
            assert fabric.detector(pid).suspected() == set()

    def test_detects_crash(self):
        sim, network, fabric = build()
        sim.schedule(5.0, network.crash, 1)
        sim.run(until=10.0)
        assert fabric.detector(0).is_suspected(1)

    def test_detection_delay_respected(self):
        sim, network, fabric = build(detection_time=40.0)
        sim.schedule(5.0, network.crash, 1)
        sim.run(until=44.0)
        assert not fabric.detector(0).is_suspected(1)
        sim.run(until=45.0)
        assert fabric.detector(0).is_suspected(1)

    def test_negative_detection_time_rejected(self):
        with pytest.raises(ValueError):
            build(detection_time=-1.0)


class TestPerfectIsNotQoS:
    """The base-class extraction: "perfect" shares the crash-detection base
    but cannot inherit QoS mistake behaviour by accident."""

    def test_shares_the_crash_detection_base(self):
        _sim, _network, fabric = build()
        assert isinstance(fabric, CrashDetectionFabric)

    def test_is_not_a_qos_fabric_subclass(self):
        _sim, _network, fabric = build()
        assert not isinstance(fabric, QoSFailureDetectorFabric)
        assert not issubclass(PerfectFailureDetectorFabric, QoSFailureDetectorFabric)

    def test_has_no_mistake_machinery(self):
        _sim, _network, fabric = build()
        for attribute in ("_schedule_next_mistake", "_mistake_begins"):
            assert not hasattr(fabric, attribute)

    def test_arms_no_mistake_kind(self):
        _sim, _network, fabric = build()
        assert not {MISTAKE_BEGINS, MISTAKE_ENDS} & set(fabric.kinds)
        assert not {MISTAKE_BEGINS, MISTAKE_ENDS} & set(fabric._due)


class TestPerfectRecovery:
    def test_short_crash_goes_unnoticed(self):
        sim, network, fabric = build(detection_time=40.0)
        sim.schedule(5.0, network.crash, 1)
        sim.schedule(10.0, network.recover, 1)
        sim.run(until=200.0)
        assert not fabric.detector(0).is_suspected(1)

    def test_trust_restored_one_detection_time_after_recovery(self):
        """Recovery catch-up parity with the QoS fabric."""
        sim, network, fabric = build(detection_time=10.0)
        sim.schedule(5.0, network.crash, 1)
        sim.run(until=20.0)
        assert fabric.detector(0).is_suspected(1)
        sim.schedule_at(50.0, network.recover, 1)
        sim.run(until=59.0)
        assert fabric.detector(0).is_suspected(1)  # not yet: T_D after recovery
        sim.run(until=61.0)
        assert not fabric.detector(0).is_suspected(1)

    def test_suspect_during_forces_a_window(self):
        sim, _network, fabric = build()
        fabric.suspect_during(0, start=10.0, duration=5.0, monitors=[1])
        sim.run(until=12.0)
        assert fabric.detector(1).is_suspected(0)
        sim.run(until=20.0)
        assert not fabric.detector(1).is_suspected(0)

    def test_suspect_permanently_marks_everyone(self):
        sim, _network, fabric = build()
        fabric.suspect_permanently(2)
        sim.run(until=1.0)
        assert fabric.detector(0).is_suspected(2)
        assert fabric.detector(1).is_suspected(2)
