"""Unit tests for the heartbeat failure detector and its fabric."""

import pytest

from repro import build_system
from repro.failure_detectors.heartbeat import (
    HeartbeatConfig,
    HeartbeatFailureDetector,
    HeartbeatFailureDetectorFabric,
)
from repro.scenarios.faults import CrashAt, FaultSchedule, RecoverAt
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.process import SimProcess


def build(n=3, period=10.0, timeout=30.0):
    sim = Simulator()
    network = Network(sim, NetworkConfig(n=n))
    processes = [SimProcess(sim, network, pid) for pid in range(n)]
    detectors = [
        HeartbeatFailureDetector(process, HeartbeatConfig(period=period, timeout=timeout))
        for process in processes
    ]
    for process in processes:
        process.start()
    return sim, network, processes, detectors


class TestHeartbeatConfig:
    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            HeartbeatConfig(period=0.0)

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError):
            HeartbeatConfig(timeout=0.0)


class TestHeartbeatDetector:
    def test_no_suspicions_without_crash(self):
        sim, _network, _processes, detectors = build()
        sim.run(until=500.0)
        for detector in detectors:
            assert detector.suspected() == set()

    def test_crashed_process_eventually_suspected(self):
        sim, _network, processes, detectors = build()
        sim.schedule(100.0, processes[2].crash)
        sim.run(until=200.0)
        assert detectors[0].is_suspected(2)
        assert detectors[1].is_suspected(2)

    def test_detection_latency_bounded_by_timeout_plus_period(self):
        sim, _network, processes, detectors = build(period=10.0, timeout=30.0)
        detection = {}

        def listener(pid, suspected):
            if suspected and pid not in detection:
                detection[pid] = sim.now

        detectors[0].add_listener(listener)
        sim.schedule(100.0, processes[1].crash)
        sim.run(until=300.0)
        assert 1 in detection
        assert detection[1] - 100.0 <= 30.0 + 2 * 10.0 + 5.0

    def test_heartbeats_generate_network_traffic(self):
        sim, network, _processes, _detectors = build()
        sim.run(until=100.0)
        assert network.stats.multicasts_sent > 0

    def test_correct_processes_never_suspected_long_run(self):
        sim, _network, _processes, detectors = build(period=5.0, timeout=25.0)
        sim.run(until=2000.0)
        assert all(not detector.suspected() for detector in detectors)


def build_fabric(n=3, period=10.0, timeout=30.0):
    """A fabric wired the way the system assembler wires it (attach per process)."""
    sim = Simulator()
    network = Network(sim, NetworkConfig(n=n))
    config = HeartbeatConfig(period=period, timeout=timeout)
    fabric = HeartbeatFailureDetectorFabric(sim, network, config)
    processes = [SimProcess(sim, network, pid) for pid in range(n)]
    for process in processes:
        process.failure_detector = fabric.attach(process)
    for process in processes:
        process.start()
    fabric.start()
    return sim, network, processes, fabric


class TestHeartbeatFabric:
    def test_attach_creates_one_component_per_process(self):
        _sim, _network, processes, fabric = build_fabric()
        assert sorted(fabric.detectors()) == [0, 1, 2]
        for process in processes:
            assert fabric.detector(process.pid) is process.failure_detector
            assert process.component("heartbeat-fd") is process.failure_detector

    def test_double_attach_rejected(self):
        _sim, _network, processes, fabric = build_fabric()
        with pytest.raises(ValueError):
            fabric.attach(processes[0])

    def test_crash_suspected_then_recovery_restores_trust(self):
        """Recovery catch-up parity with the QoS fabric: a crash is
        suspected after the timeout, and a recovery earns trust back
        (here: as soon as heartbeats flow again)."""
        sim, _network, processes, fabric = build_fabric(period=10.0, timeout=30.0)
        transitions = []
        fabric.detector(0).add_listener(
            lambda pid, suspected: transitions.append((sim.now, pid, suspected))
        )
        sim.schedule(100.0, processes[2].crash)
        sim.run(until=250.0)
        assert fabric.detector(0).is_suspected(2)
        assert fabric.detector(1).is_suspected(2)

        sim.schedule_at(300.0, processes[2].recover)
        sim.run(until=500.0)
        assert not fabric.detector(0).is_suspected(2)
        assert not fabric.detector(1).is_suspected(2)
        # exactly one suspicion + one trust transition for p2 at p0
        assert [(pid, s) for _t, pid, s in transitions] == [(2, True), (2, False)]

    def test_recovered_process_gets_a_grace_period(self):
        """The recovered monitor's own clocks are re-armed: it does not
        instantly suspect every peer whose last heartbeat predates its
        downtime."""
        sim, _network, processes, fabric = build_fabric(period=10.0, timeout=30.0)
        sim.schedule(100.0, processes[2].crash)
        sim.schedule_at(400.0, processes[2].recover)
        sim.run(until=420.0)
        # p2 was down for 300 ms (> timeout) but trusts its peers right away.
        assert fabric.detector(2).suspected() == set()
        sim.run(until=600.0)
        assert fabric.detector(2).suspected() == set()

    def test_short_crash_goes_unnoticed(self):
        sim, _network, processes, fabric = build_fabric(period=10.0, timeout=50.0)
        events = []
        fabric.detector(0).add_listener(lambda pid, s: events.append((pid, s)))
        sim.schedule(100.0, processes[1].crash)
        sim.schedule_at(110.0, processes[1].recover)
        sim.run(until=400.0)
        assert events == []

    @pytest.mark.parametrize("recovery", [5.0, 200.0])
    def test_a_process_down_before_the_run_heartbeats_once_recovered(self, recovery):
        """Its first timers fire while it is down (after the first period)
        or right after the recovery (before it): either way it runs exactly
        one heartbeat chain from the recovery on, and is trusted again."""
        system = build_system(n=3, fd_kind="heartbeat", seed=1)
        FaultSchedule([CrashAt(0.0, 2), RecoverAt(recovery, 2)]).apply(system)
        detector = system.fd_fabric.detector(2)
        beats = []
        emit = detector._emit_heartbeat

        def counted():
            beats.append(system.sim.now)
            emit()

        detector._emit_heartbeat = counted
        system.run(until=recovery + 95.0)
        assert beats == [0.0] + [recovery + 10.0 * k for k in range(10)]
        assert not system.fd_fabric.detector(0).is_suspected(2)

    def test_suspect_permanently_sticks_even_for_live_targets(self):
        sim, _network, _processes, fabric = build_fabric()
        fabric.suspect_permanently(1)
        sim.run(until=500.0)
        # p1 is alive and heartbeating, but the forced window never expires.
        assert fabric.detector(0).is_suspected(1)
        assert fabric.detector(2).is_suspected(1)
        assert not fabric.detector(1).suspected()

    def test_suspect_during_window_ignores_heartbeats(self):
        sim, _network, _processes, fabric = build_fabric(period=10.0, timeout=30.0)
        fabric.suspect_during(0, start=100.0, duration=50.0, monitors=[1])
        sim.run(until=120.0)
        assert fabric.detector(1).is_suspected(0)  # heartbeats keep arriving
        assert not fabric.detector(2).is_suspected(0)  # only p1 was told
        sim.run(until=200.0)
        assert not fabric.detector(1).is_suspected(0)  # window over, trust back

    def test_suspect_during_rejects_negative_duration(self):
        _sim, _network, _processes, fabric = build_fabric()
        with pytest.raises(ValueError):
            fabric.suspect_during(0, start=10.0, duration=-1.0)

    def test_permanent_suspicion_survives_an_overlapping_window(self):
        """A suspect_permanently layered onto an active suspect_during window
        must not be wiped when the window's scheduled lift fires."""
        sim, _network, _processes, fabric = build_fabric()
        fabric.suspect_during(0, start=10.0, duration=100.0, monitors=[1])
        sim.schedule_at(50.0, fabric.suspect_permanently, 0)
        sim.run(until=500.0)
        assert fabric.detector(1).is_suspected(0)
        assert fabric.detector(2).is_suspected(0)

    def test_heartbeat_system_counts_fd_traffic(self):
        system = build_system(n=3, fd_kind="heartbeat", seed=1)
        system.run(until=200.0)
        qos_system = build_system(n=3, fd_kind="qos", seed=1)
        qos_system.run(until=200.0)
        # The message-based detector loads the network; the QoS model is free.
        assert system.message_stats()["messages_sent"] > qos_system.message_stats()["messages_sent"]
