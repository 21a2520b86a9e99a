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
            lambda origin, payload, _pid=pid: deliveries[_pid].append((origin, payload))
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

    def test_an_origins_broadcasts_are_delivered_in_send_order(self):
        sim, _n, _p, _d, rbcasts, deliveries = build()
        rbcasts[1].broadcast("a")
        rbcasts[1].broadcast("b")
        sim.run()
        assert deliveries[0] == [(1, "a"), (1, "b")]

    def test_duplicates_are_suppressed(self):
        sim, _n, _p, _d, rbcasts, deliveries = build()
        rbcasts[0].broadcast("once")
        sim.run()
        # A duplicating link hands p1 the same copy again.
        rbcasts[1].on_message(0, ("RB", 1, "once"))
        assert deliveries[1] == [(0, "once")]

    def test_a_uid_below_the_origins_last_delivered_one_is_dropped(self):
        _sim, _n, _p, _d, rbcasts, deliveries = build()
        # p1 missed p0's first broadcast and delivered its second; a late
        # copy of the first stays missed.
        rbcasts[1].on_message(0, ("RB", 2, "second"))
        rbcasts[1].on_message(0, ("RB", 1, "first"))
        assert deliveries[1] == [(0, "second")]

    def test_restricted_group(self):
        sim, _n, _p, _d, rbcasts, deliveries = build()
        rbcasts[0].broadcast("secret", group=[0, 1])
        sim.run()
        assert deliveries[2] == []
        assert deliveries[1] == [(0, "secret")]

    def test_suspecting_an_origin_sends_nothing(self):
        sim, network, _p, detectors, rbcasts, deliveries = build()
        rbcasts[0].broadcast("x")
        sim.run()
        before = network.stats.messages_sent
        detectors[1].force_suspect(0)
        detectors[2].force_suspect(0)
        sim.run()
        assert network.stats.messages_sent == before
        assert deliveries[2] == [(0, "x")]
