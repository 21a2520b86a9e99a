"""Partition awareness of the clock-driven failure detector fabrics.

Clock-driven detectors (QoS, perfect) exchange no real messages, so a
partitioned link cannot starve them the way it starves heartbeats.  The
fabric therefore listens for partition changes: a blocked
``monitored -> monitor`` link looks exactly like a crash from the
monitor's side -- suspected one detection time after the cut, trusted
again one detection time after the heal -- while unblocked monitors keep
their view.  These tests pin that semantics and its interplay with the
crash path and with random QoS mistakes.
"""

from repro.failure_detectors.qos import QoSConfig, QoSFailureDetectorFabric
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.rng import RandomStreams


def build_fabric(n=3, seed=1, scan_interval=None, **qos):
    sim = Simulator()
    network = Network(sim, NetworkConfig(n=n))
    for pid in range(n):
        network.attach(pid, lambda p, m: None)
    fabric = QoSFailureDetectorFabric(
        sim, network, RandomStreams(seed), QoSConfig(**qos), scan_interval=scan_interval
    )
    return sim, network, fabric


class TestPartitionSuspicion:
    def test_blocked_link_suspected_after_detection_time(self):
        sim, network, fabric = build_fabric(detection_time=25.0)
        fabric.start()
        # Monitor 0 stops hearing from 2; the reverse direction is fine.
        sim.schedule(10.0, network.block_links, [(2, 0)])
        sim.run(until=34.9)
        assert not fabric.detector(0).is_suspected(2)
        sim.run(until=35.0)
        assert fabric.detector(0).is_suspected(2)
        assert not fabric.detector(2).is_suspected(0)
        assert not fabric.detector(1).is_suspected(2)

    def test_cut_shorter_than_detection_time_goes_unnoticed(self):
        sim, network, fabric = build_fabric(detection_time=25.0)
        fabric.start()
        sim.schedule(10.0, network.block_links, [(2, 0)])
        sim.schedule(20.0, network.heal)
        sim.run(until=200.0)
        assert not fabric.detector(0).is_suspected(2)

    def test_symmetric_partition_suspects_across_sides_only(self):
        sim, network, fabric = build_fabric(detection_time=25.0)
        fabric.start()
        sim.schedule(10.0, network.partition, [(0, 1), (2,)])
        sim.run(until=50.0)
        assert fabric.detector(0).is_suspected(2)
        assert fabric.detector(1).is_suspected(2)
        assert fabric.detector(2).is_suspected(0)
        assert fabric.detector(2).is_suspected(1)
        assert not fabric.detector(0).is_suspected(1)
        assert not fabric.detector(1).is_suspected(0)

    def test_trust_restored_one_detection_time_after_heal(self):
        sim, network, fabric = build_fabric(detection_time=25.0)
        fabric.start()
        sim.schedule(10.0, network.block_links, [(2, 0)])
        sim.schedule(100.0, network.heal)
        sim.run(until=124.9)
        assert fabric.detector(0).is_suspected(2)
        sim.run(until=125.0)
        assert not fabric.detector(0).is_suspected(2)

    def test_replacing_the_mask_reschedules_per_pair(self):
        sim, network, fabric = build_fabric(detection_time=25.0)
        fabric.start()
        sim.schedule(10.0, network.block_links, [(2, 0)])
        # Before the first cut is detected, shift the partition to a
        # different link: the old pair must never become suspected.
        sim.schedule(20.0, network.block_links, [(1, 0)])
        sim.run(until=60.0)
        assert not fabric.detector(0).is_suspected(2)
        assert fabric.detector(0).is_suspected(1)


class TestPartitionCrashInterplay:
    def test_crash_path_owns_an_already_crashed_monitored(self):
        sim, network, fabric = build_fabric(detection_time=25.0)
        fabric.start()
        sim.schedule(5.0, network.crash, 2)
        sim.schedule(10.0, network.partition, [(0, 1), (2,)])
        sim.schedule(50.0, network.heal)
        sim.run(until=500.0)
        # Crashed processes stay suspected through partition and heal.
        assert fabric.detector(0).is_suspected(2)
        assert fabric.detector(1).is_suspected(2)

    def test_heal_owns_trust_after_recovery_while_partitioned(self):
        sim, network, fabric = build_fabric(detection_time=25.0)
        fabric.start()
        sim.schedule(5.0, network.crash, 2)
        sim.schedule(10.0, network.block_links, [(2, 0)])
        sim.schedule(50.0, network.recover, 2)
        sim.schedule(200.0, network.heal)
        sim.run(until=100.0)
        # Monitor 1 hears from the recovered process again...
        assert not fabric.detector(1).is_suspected(2)
        # ...but monitor 0's link is still cut: suspicion persists.
        assert fabric.detector(0).is_suspected(2)
        sim.run(until=224.9)
        assert fabric.detector(0).is_suspected(2)
        sim.run(until=225.0)
        assert not fabric.detector(0).is_suspected(2)

    def test_partition_detect_rearmed_when_recovery_unmasks_it(self):
        sim, network, fabric = build_fabric(detection_time=25.0)
        fabric.start()
        # The crash fires first, so the partition defers to the crash
        # path; when the process recovers with the link still cut, the
        # partition must take over and keep the pair suspected.
        sim.schedule(5.0, network.crash, 2)
        sim.schedule(10.0, network.block_links, [(2, 0)])
        sim.schedule(40.0, network.recover, 2)
        sim.run(until=500.0)
        assert fabric.detector(0).is_suspected(2)
        assert not fabric.detector(1).is_suspected(2)


class TestPartitionMistakeInterplay:
    def test_mistakes_cannot_lift_partition_suspicion(self):
        sim, network, fabric = build_fabric(
            detection_time=10.0,
            mistake_recurrence_time=40.0,
            mistake_duration=5.0,
        )
        fabric.start()
        sim.schedule(50.0, network.block_links, [(2, 0)])
        sim.schedule(1_000.0, network.heal)
        # A mistake window ending mid-partition must not clear the
        # partition suspicion: sample densely across the blocked window.
        detector = fabric.detector(0)
        for instant in range(61, 1_000, 7):
            sim.run(until=float(instant))
            assert detector.is_suspected(2), f"suspicion lost at t={instant}"
        sim.run(until=2_000.0)
        assert not detector.is_suspected(2)

    def test_mistakes_resume_after_heal(self):
        sim, network, fabric = build_fabric(
            detection_time=10.0,
            mistake_recurrence_time=200.0,
            mistake_duration=5.0,
        )
        fabric.start()
        sim.schedule(50.0, network.block_links, [(2, 0)])
        sim.schedule(100.0, network.heal)
        mistakes = []
        fabric.detector(0).add_listener(
            lambda pid, suspected: mistakes.append((sim.now, pid, suspected))
        )
        sim.run(until=20_000.0)
        # The pair keeps generating wrong suspicions after the heal.
        assert any(time > 110.0 and suspected for time, _pid, suspected in mistakes)


class TestBatchedScanPartitions:
    def test_partition_transitions_stay_exact_in_batch_mode(self):
        # Partition changes are rare, externally injected instants: they
        # bypass the quantized calendar (the suspect_during precedent).
        sim, network, fabric = build_fabric(detection_time=25.0, scan_interval=10.0)
        fabric.start()
        sim.schedule(12.0, network.block_links, [(2, 0)])
        sim.schedule(100.0, network.heal)
        sim.run(until=36.9)
        assert not fabric.detector(0).is_suspected(2)
        sim.run(until=37.0)
        assert fabric.detector(0).is_suspected(2)
        sim.run(until=124.9)
        assert fabric.detector(0).is_suspected(2)
        sim.run(until=125.0)
        assert not fabric.detector(0).is_suspected(2)
