"""Tests for the batched-scan failure detector mode (``fd_scan_interval``).

Batch mode replaces O(n^2) per-pair timer events with one fabric-local
calendar drained by a single armed scan event.  It is *quantized*, not
bit-identical: every transition fires at the first multiple of the scan
interval at or after its exact due time.  These tests pin the semantics
(quantization, O(1) cancellation by forgetting an entry, trust
bookkeeping, mistake generation) and that the full stacks stay safe on top of it.
"""

import pytest

from repro import QoSConfig, SystemConfig, build_system
from repro.failure_detectors.qos import QoSFailureDetectorFabric
from repro.scenarios.faults import CrashAt, FaultSchedule
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.rng import RandomStreams
from tests.conftest import assert_no_duplicates, assert_prefix_consistent, poisson_broadcasts


def build_fabric(n=3, seed=1, scan_interval=10.0, **qos):
    sim = Simulator()
    network = Network(sim, NetworkConfig(n=n))
    for pid in range(n):
        network.attach(pid, lambda p, m: None)
    fabric = QoSFailureDetectorFabric(
        sim, network, RandomStreams(seed), QoSConfig(**qos), scan_interval=scan_interval
    )
    return sim, network, fabric


def suspicion_trace(fabric):
    """Record every (time, monitor, pid, suspected) transition of the fabric."""
    trace = []
    sim = fabric._sim
    for monitor, detector in fabric.detectors().items():
        detector.add_listener(
            lambda pid, suspected, monitor=monitor: trace.append(
                (sim.now, monitor, pid, suspected)
            )
        )
    return trace


class TestScanIntervalValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_scan_interval_rejected(self, bad):
        with pytest.raises(ValueError):
            build_fabric(scan_interval=bad)

    @pytest.mark.parametrize("bad", [0.0, -2.5])
    def test_nonpositive_system_config_rejected(self, bad):
        with pytest.raises(ValueError):
            SystemConfig(n=3, fd_scan_interval=bad)

    def test_none_means_exact_mode(self):
        sim, _network, fabric = build_fabric(scan_interval=None)
        assert fabric.scan_interval is None

    def test_scan_interval_exposed(self):
        _sim, _network, fabric = build_fabric(scan_interval=2.5)
        assert fabric.scan_interval == 2.5


class TestBatchedCrashDetection:
    def test_detection_lands_on_the_next_tick(self):
        # Crash at 10 with T_D = 25 is due at 35; on a 10-tick grid the
        # suspicion fires at 40, not 35.
        sim, network, fabric = build_fabric(detection_time=25.0, scan_interval=10.0)
        fabric.start()
        sim.schedule(10.0, network.crash, 2)
        sim.run(until=39.9)
        assert not fabric.detector(0).is_suspected(2)
        sim.run(until=40.0)
        assert fabric.detector(0).is_suspected(2)
        assert fabric.detector(1).is_suspected(2)

    def test_due_time_on_the_grid_is_not_delayed(self):
        # Crash at 10 with T_D = 30 is due exactly at the 40 tick.
        sim, network, fabric = build_fabric(detection_time=30.0, scan_interval=10.0)
        fabric.start()
        sim.schedule(10.0, network.crash, 2)
        sim.run(until=40.0)
        assert fabric.detector(0).is_suspected(2)

    def test_recovery_before_detection_cancels_it(self):
        # Cancellation forgets the pair's entry: the calendar tuple stays on
        # the heap but must be dead when the scan reaches it.
        sim, network, fabric = build_fabric(detection_time=25.0, scan_interval=10.0)
        fabric.start()
        sim.schedule(10.0, network.crash, 2)
        sim.schedule(20.0, network.recover, 2)
        sim.run(until=200.0)
        assert not fabric.detector(0).is_suspected(2)
        assert not fabric.detector(1).is_suspected(2)

    def test_one_scan_event_replaces_per_pair_timers(self):
        # Exact mode schedules one detection event per monitor after a
        # crash; batch mode arms exactly one scan event however many pairs
        # become due.
        sim, network, fabric = build_fabric(n=10, detection_time=25.0, scan_interval=10.0)
        fabric.start()
        network.crash(0)
        assert sim.pending_events == 1

    def test_transitions_only_happen_on_grid_ticks(self):
        sim, network, fabric = build_fabric(
            n=4, detection_time=7.3, scan_interval=2.0, seed=5
        )
        trace = suspicion_trace(fabric)
        fabric.start()
        sim.schedule(3.1, network.crash, 1)
        sim.schedule(29.9, network.recover, 1)
        sim.run(until=300.0)
        assert trace, "expected suspicion activity"
        for time, _monitor, _pid, _suspected in trace:
            ticks = time / 2.0
            assert ticks == int(ticks), f"transition off the scan grid at {time}"


class TestBatchedTrustRestoration:
    def test_trust_restored_one_quantized_detection_time_after_recovery(self):
        sim, network, fabric = build_fabric(detection_time=25.0, scan_interval=10.0)
        fabric.start()
        sim.schedule(10.0, network.crash, 2)
        sim.schedule(100.0, network.recover, 2)
        sim.run(until=129.9)
        assert fabric.detector(0).is_suspected(2)
        # Due at 125, quantized to 130.
        sim.run(until=130.0)
        assert not fabric.detector(0).is_suspected(2)

    def test_recrash_cancels_pending_trust(self):
        sim, network, fabric = build_fabric(detection_time=25.0, scan_interval=10.0)
        fabric.start()
        sim.schedule(10.0, network.crash, 2)
        sim.schedule(100.0, network.recover, 2)
        sim.schedule(121.0, network.crash, 2)  # before the 130 trust tick
        sim.run(until=500.0)
        assert fabric.detector(0).is_suspected(2)

    def test_trust_pending_bookkeeping(self):
        sim, network, fabric = build_fabric(detection_time=25.0, scan_interval=10.0)
        fabric.start()
        sim.schedule(10.0, network.crash, 2)
        sim.schedule(100.0, network.recover, 2)
        sim.run(until=120.0)
        assert fabric._trust_pending(0, 2)
        sim.run(until=130.0)
        assert not fabric._trust_pending(0, 2)


class TestBatchedMistakes:
    def test_mistakes_are_generated_and_corrected(self):
        sim, _network, fabric = build_fabric(
            mistake_recurrence_time=50.0,
            mistake_duration=5.0,
            scan_interval=1.0,
            seed=3,
        )
        fabric.start()
        sim.run(until=2_000.0)
        for pid in range(3):
            detector = fabric.detector(pid)
            assert detector.suspicion_events > 0
            assert detector.trust_events > 0

    def test_crash_stops_mistakes_for_the_pair(self):
        sim, network, fabric = build_fabric(
            detection_time=0.0,
            mistake_recurrence_time=20.0,
            mistake_duration=2.0,
            scan_interval=1.0,
            seed=7,
        )
        fabric.start()
        network.crash(2)
        sim.run(until=1_000.0)
        # The crashed process stays permanently suspected: the mistake
        # machinery must never "correct" a real crash.
        assert fabric.detector(0).is_suspected(2)
        assert fabric.detector(1).is_suspected(2)

    def test_instantaneous_mistakes_still_flip_listeners(self):
        sim, _network, fabric = build_fabric(
            mistake_recurrence_time=30.0,
            mistake_duration=0.0,
            scan_interval=1.0,
            seed=9,
        )
        trace = suspicion_trace(fabric)
        fabric.start()
        sim.run(until=1_000.0)
        flips = [entry for entry in trace if entry[1] == 0]
        assert any(suspected for _t, _m, _p, suspected in flips)
        assert any(not suspected for _t, _m, _p, suspected in flips)
        assert not fabric.detector(0).suspected()


class TestStacksOnBatchedScan:
    def test_safety_under_suspicion_storm(self, algorithm):
        config = SystemConfig(
            n=3,
            stack=algorithm,
            seed=79,
            fd=QoSConfig(mistake_recurrence_time=120.0, mistake_duration=10.0),
            fd_scan_interval=1.0,
        )
        system = build_system(config)
        assert system.fd_fabric.scan_interval == 1.0
        system.start()
        broadcasts = poisson_broadcasts(30, 0.02, senders=[0, 1, 2], seed=13)
        for time, sender, payload in broadcasts:
            system.broadcast_at(time, sender, payload)
        system.run(until=120_000.0, max_events=3_000_000)
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        sent = {payload for _t, _s, payload in broadcasts}
        for pid in range(3):
            assert {p for _b, p in system.abcast(pid).delivered} == sent

    def test_safety_with_crash_and_recovery(self, algorithm):
        config = SystemConfig(
            n=5,
            stack=algorithm,
            seed=83,
            fd=QoSConfig(
                detection_time=25.0,
                mistake_recurrence_time=400.0,
                mistake_duration=20.0,
            ),
            fd_scan_interval=1.0,
        )
        system = build_system(config)
        system.start()
        broadcasts = poisson_broadcasts(25, 0.02, senders=[1, 2, 3], seed=17)
        for time, sender, payload in broadcasts:
            system.broadcast_at(time, sender, payload)
        FaultSchedule([CrashAt(250.0, 0)]).apply(system)
        system.run(until=120_000.0, max_events=3_000_000)
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        for pid in (1, 2, 3, 4):
            assert len(sequences[pid]) == 25

    def test_batch_mode_changes_event_counts_but_not_safety(self):
        # The whole point: fewer events, same delivered payloads.
        def run(scan_interval):
            config = SystemConfig(
                n=5,
                stack="fd",
                seed=91,
                fd=QoSConfig(mistake_recurrence_time=60.0, mistake_duration=5.0),
                fd_scan_interval=scan_interval,
            )
            system = build_system(config)
            system.start()
            for time, sender, payload in poisson_broadcasts(
                20, 0.02, senders=[0, 1, 2, 3, 4], seed=23
            ):
                system.broadcast_at(time, sender, payload)
            system.run(until=60_000.0, max_events=3_000_000)
            return system

        exact = run(None)
        batched = run(1.0)
        assert batched.sim.events_processed < exact.sim.events_processed
        for pid in range(5):
            assert [p for _b, p in batched.abcast(pid).delivered] == [
                p for _b, p in exact.abcast(pid).delivered
            ]
