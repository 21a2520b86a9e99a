"""Unit tests for the reliable broadcast component."""

from repro.core.reliable_broadcast import ReliableBroadcast
from repro.failure_detectors.interface import FailureDetector
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.process import SimProcess


def build(n=3):
    sim = Simulator()
    network = Network(sim, NetworkConfig(n=n))
    processes = [SimProcess(sim, network, pid) for pid in range(n)]
    detectors = [FailureDetector(pid, range(n)) for pid in range(n)]
    rbcasts = []
    deliveries = {pid: [] for pid in range(n)}
    for pid, process in enumerate(processes):
        process.failure_detector = detectors[pid]
        rbcast = ReliableBroadcast(process)
        rbcast.add_listener(
            lambda origin, uid, payload, _pid=pid: deliveries[_pid].append((origin, payload))
        )
        rbcasts.append(rbcast)
        process.start()
    return sim, network, processes, detectors, rbcasts, deliveries


class TestReliableBroadcast:
    def test_broadcast_reaches_everyone_including_origin(self):
        sim, _n, _p, _d, rbcasts, deliveries = build()
        rbcasts[0].broadcast("hello")
        sim.run()
        assert deliveries[0] == [(0, "hello")]
        assert deliveries[1] == [(0, "hello")]
        assert deliveries[2] == [(0, "hello")]

    def test_costs_one_multicast_in_the_common_case(self):
        sim, network, _p, _d, rbcasts, _deliveries = build()
        rbcasts[0].broadcast("payload")
        sim.run()
        assert network.stats.multicasts_sent == 1
        assert network.stats.unicasts_sent == 0

    def test_uid_identifies_origin_and_sequence(self):
        _sim, _n, _p, _d, rbcasts, _deliveries = build()
        uid1 = rbcasts[1].broadcast("a")
        uid2 = rbcasts[1].broadcast("b")
        assert uid1 == (1, 1)
        assert uid2 == (1, 2)

    def test_duplicates_are_suppressed(self):
        sim, _n, _p, _d, rbcasts, deliveries = build()
        rbcasts[0].broadcast("once")
        sim.run()
        # Simulate a relayed duplicate arriving later.
        rbcasts[1].on_message(0, ("RB", (0, 1), 0, (0, 1, 2), "once"))
        assert deliveries[1] == [(0, "once")]

    def test_a_uid_below_the_origins_last_delivered_one_is_dropped(self):
        _sim, _n, _p, _d, rbcasts, deliveries = build()
        # p1 missed (0, 1) and delivered (0, 2); a late relayed copy of
        # (0, 1) stays missed.
        rbcasts[1].on_message(0, ("RB", (0, 2), 0, (0, 1, 2), "second"))
        rbcasts[1].on_message(2, ("RB", (0, 1), 0, (0, 1, 2), "first"))
        assert deliveries[1] == [(0, "second")]

    def test_restricted_group(self):
        sim, _n, _p, _d, rbcasts, deliveries = build()
        rbcasts[0].broadcast("secret", group=[0, 1])
        sim.run()
        assert deliveries[2] == []
        assert deliveries[1] == [(0, "secret")]

    def test_relay_on_suspicion_of_origin(self):
        sim, network, _p, detectors, rbcasts, deliveries = build()
        rbcasts[0].broadcast("relayed")
        sim.run()
        before = network.stats.messages_sent
        detectors[1].force_suspect(0)
        sim.run()
        assert rbcasts[1].relays == 1
        assert network.stats.messages_sent == before + 1
        # Redelivery did not happen (duplicates suppressed).
        assert deliveries[2] == [(0, "relayed")]

    def test_stable_messages_are_not_relayed(self):
        sim, _n, _p, detectors, rbcasts, _deliveries = build()
        uid = rbcasts[0].broadcast("stable")
        sim.run()
        rbcasts[1].mark_stable(uid)
        detectors[1].force_suspect(0)
        sim.run()
        assert rbcasts[1].relays == 0

    def test_suspicion_of_other_process_does_not_relay(self):
        sim, _n, _p, detectors, rbcasts, _deliveries = build()
        rbcasts[0].broadcast("x")
        sim.run()
        detectors[1].force_suspect(2)
        sim.run()
        assert rbcasts[1].relays == 0

    def test_unstable_count_tracks_buffer(self):
        sim, _n, _p, _d, rbcasts, _deliveries = build()
        uid = rbcasts[0].broadcast("x")
        sim.run()
        assert rbcasts[1].unstable_count() == 1
        rbcasts[1].mark_stable(uid)
        assert rbcasts[1].unstable_count() == 0

    def test_trust_event_does_not_relay(self):
        sim, _n, _p, detectors, rbcasts, _deliveries = build()
        rbcasts[0].broadcast("x")
        sim.run()
        detectors[1].force_suspect(0)
        detectors[1].force_trust(0)
        sim.run()
        assert rbcasts[1].relays == 1  # only the suspicion relays, once

    def test_a_relayed_message_leaves_the_buffer(self):
        sim, network, _p, detectors, rbcasts, _deliveries = build()
        rbcasts[0].broadcast("x")
        sim.run()
        detectors[1].force_suspect(0)
        sim.run()
        assert (rbcasts[1].relays, rbcasts[1].unstable_count()) == (1, 0)
        before = network.stats.messages_sent
        detectors[1].force_trust(0)
        detectors[1].force_suspect(0)
        sim.run()
        assert rbcasts[1].relays == 1
        assert network.stats.messages_sent == before
