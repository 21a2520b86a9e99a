"""Unit tests for the contention-aware network model (paper Fig. 2)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.network import Network, NetworkConfig
from repro.sim.wan import register_wan_profile, wan_profile


class Collector:
    """Records (time, destination, message) for every delivery."""

    def __init__(self, sim):
        self.sim = sim
        self.deliveries = []

    def callback(self, pid, message):
        self.deliveries.append((self.sim.now, pid, message))

    def times_for(self, pid):
        return [time for time, dest, _m in self.deliveries if dest == pid]


def build(n=3, lambda_cpu=1.0, network_time=1.0):
    sim = Simulator()
    network = Network(sim, NetworkConfig(n=n, lambda_cpu=lambda_cpu, network_time=network_time))
    collector = Collector(sim)
    for pid in range(n):
        network.attach(pid, collector.callback)
    return sim, network, collector


class TestConfigValidation:
    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            NetworkConfig(n=0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            NetworkConfig(n=2, lambda_cpu=-1.0)

    def test_rejects_zero_network_time(self):
        with pytest.raises(ValueError):
            NetworkConfig(n=2, network_time=0.0)


class TestTiming:
    def test_unicast_takes_two_lambda_plus_network(self):
        sim, network, collector = build(lambda_cpu=1.0)
        network.send(Message(0, (1,), "p", "x"))
        sim.run()
        # 1 (CPU_0) + 1 (network) + 1 (CPU_1) = 3 time units.
        assert collector.times_for(1) == [3.0]

    def test_lambda_scales_cpu_cost(self):
        sim, network, collector = build(lambda_cpu=2.5)
        network.send(Message(0, (1,), "p", "x"))
        sim.run()
        assert collector.times_for(1) == [pytest.approx(6.0)]

    def test_lambda_zero_only_network_cost(self):
        sim, network, collector = build(lambda_cpu=0.0)
        network.send(Message(0, (1,), "p", "x"))
        sim.run()
        assert collector.times_for(1) == [1.0]

    def test_multicast_occupies_network_once(self):
        sim, network, collector = build(n=4)
        network.send(Message(0, (1, 2, 3), "p", "x"))
        sim.run()
        # All destinations receive at the same time: the network is used once.
        assert collector.times_for(1) == [3.0]
        assert collector.times_for(2) == [3.0]
        assert collector.times_for(3) == [3.0]
        assert network.network_resource.jobs_served == 1

    def test_local_destination_delivered_without_resource_usage(self):
        sim, network, collector = build()
        network.send(Message(0, (0,), "p", "x"))
        sim.run()
        assert collector.times_for(0) == [0.0]
        assert network.cpu(0).jobs_served == 0
        assert network.network_resource.jobs_served == 0

    def test_self_plus_remote_destination(self):
        sim, network, collector = build()
        network.send(Message(0, (0, 1), "p", "x"))
        sim.run()
        assert collector.times_for(0) == [0.0]
        assert collector.times_for(1) == [3.0]

    def test_sender_cpu_serializes_two_sends(self):
        sim, network, collector = build()
        network.send(Message(0, (1,), "p", "first"))
        network.send(Message(0, (1,), "p", "second"))
        sim.run()
        # The second message waits one time unit behind the first on CPU_0,
        # then the stages pipeline: it arrives exactly one unit later.
        assert collector.times_for(1) == [3.0, 4.0]

    def test_network_is_shared_between_senders(self):
        sim, network, collector = build()
        network.send(Message(0, (2,), "p", "from0"))
        network.send(Message(1, (2,), "p", "from1"))
        sim.run()
        times = sorted(collector.times_for(2))
        # Both finish their own CPU at t=1, then serialize on the shared
        # network (1->2 and 2->3) and pipeline through CPU_2.
        assert times == [3.0, 4.0]

    def test_receiver_cpu_serializes_deliveries(self):
        sim, network, collector = build(n=4)
        network.send(Message(0, (3,), "p", "a"))
        network.send(Message(1, (3,), "p", "b"))
        network.send(Message(2, (3,), "p", "c"))
        sim.run()
        # The three messages serialize on the shared network and then on the
        # receiving CPU, one time unit apart.
        assert sorted(collector.times_for(3)) == [3.0, 4.0, 5.0]


class TestCrashes:
    def test_crashed_sender_messages_dropped(self):
        sim, network, collector = build()
        network.crash(0)
        network.send(Message(0, (1,), "p", "x"))
        sim.run()
        assert collector.deliveries == []
        assert network.stats.dropped_sender_crashed == 1

    def test_messages_already_on_cpu_still_sent_after_crash(self):
        sim, network, collector = build()
        network.send(Message(0, (1,), "p", "in-flight"))
        sim.schedule(0.5, network.crash, 0)
        sim.run()
        # Software crash semantics: the message was already handed to CPU_0.
        assert collector.times_for(1) == [3.0]

    def test_crashed_receiver_gets_nothing(self):
        sim, network, collector = build()
        network.crash(1)
        network.send(Message(0, (1, 2), "p", "x"))
        sim.run()
        assert collector.times_for(1) == []
        assert collector.times_for(2) == [3.0]
        assert network.stats.dropped_receiver_crashed == 1

    def test_crash_is_idempotent_and_listener_called_once(self):
        sim, network, _collector = build()
        crashes = []
        network.add_crash_listener(lambda pid, time: crashes.append((pid, time)))
        network.crash(1)
        network.crash(1)
        assert crashes == [(1, 0.0)]
        assert network.crash_time(1) == 0.0
        assert network.crash_time(2) is None

    def test_correct_processes_listing(self):
        _sim, network, _collector = build(n=4)
        network.crash(2)
        assert network.correct_processes() == [0, 1, 3]
        assert network.is_crashed(2)
        assert not network.is_crashed(0)


class TestStatsAndValidation:
    def test_stats_count_unicasts_and_multicasts(self):
        sim, network, _collector = build(n=4)
        network.send(Message(0, (1,), "p", "u"))
        network.send(Message(0, (1, 2, 3), "p", "m"))
        sim.run()
        stats = network.stats.as_dict()
        assert stats["unicasts_sent"] == 1
        assert stats["multicasts_sent"] == 1
        assert stats["messages_sent"] == 2
        assert stats["deliveries"] == 4

    def test_invalid_destination_rejected(self):
        _sim, network, _collector = build()
        with pytest.raises(ValueError):
            network.send(Message(0, (9,), "p", "x"))

    def test_unattached_destination_raises(self):
        sim = Simulator()
        network = Network(sim, NetworkConfig(n=2))
        network.attach(0, lambda pid, m: None)
        network.send(Message(0, (1,), "p", "x"))
        with pytest.raises(RuntimeError):
            sim.run()


class TestPartitions:
    def test_symmetric_partition_drops_cross_group_frames(self):
        sim, network, collector = build(n=4)
        network.partition([(0, 1), (2, 3)])
        network.send(Message(0, (1, 2, 3), "p", "x"))
        sim.run()
        assert [dest for _t, dest, _m in collector.deliveries] == [1]
        assert network.stats.dropped_partitioned == 2

    def test_unlisted_pids_become_singletons(self):
        sim, network, collector = build(n=3)
        network.partition([(0, 1)])
        network.send(Message(2, (0, 1), "p", "x"))
        sim.run()
        assert collector.deliveries == []
        assert network.is_link_blocked(2, 0)
        assert network.is_link_blocked(0, 2)
        assert not network.is_link_blocked(0, 1)

    def test_block_links_is_directional(self):
        sim, network, collector = build(n=3)
        network.block_links([(0, 2)])
        network.send(Message(0, (2,), "p", "out"))
        network.send(Message(2, (0,), "p", "back"))
        sim.run()
        assert [dest for _t, dest, _m in collector.deliveries] == [0]
        assert network.is_link_blocked(0, 2)
        assert not network.is_link_blocked(2, 0)

    def test_heal_restores_every_link(self):
        sim, network, collector = build(n=3)
        network.partition([(0,), (1,), (2,)])
        network.heal()
        network.send(Message(0, (1, 2), "p", "x"))
        sim.run()
        assert len(collector.deliveries) == 2
        assert network.stats.dropped_partitioned == 0

    def test_a_new_partition_replaces_the_mask(self):
        _sim, network, _collector = build(n=4)
        network.partition([(0, 1), (2, 3)])
        network.partition([(0, 2), (1, 3)])
        assert not network.is_link_blocked(0, 2)
        assert network.is_link_blocked(0, 1)

    def test_partitioned_frame_still_occupies_sender_cpu_and_medium(self):
        # The medium does not know the receiver is unreachable: the frame
        # pays emission + transmission, then vanishes.
        sim, network, _collector = build(n=2, lambda_cpu=1.0, network_time=1.0)
        network.partition([(0,), (1,)])
        network.send(Message(0, (1,), "p", "x"))
        sim.run()
        assert network.cpu(0).busy_time == 1.0
        assert network.network_resource.busy_time == 1.0
        assert network.cpu(1).busy_time == 0.0

    def test_partition_rejects_duplicate_and_unknown_pids(self):
        _sim, network, _collector = build(n=3)
        with pytest.raises(ValueError):
            network.partition([(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            network.partition([(0, 9)])

    def test_partition_listeners_observe_mask_changes(self):
        _sim, network, _collector = build(n=3)
        seen = []
        network.add_partition_listener(lambda blocked, now: seen.append(blocked))
        network.block_links([(0, 1)])
        network.heal()
        assert seen == [{(0, 1)}, None]


class TestWanDelays:
    def test_matrix_must_be_square_and_non_negative(self):
        _sim, network, _collector = build(n=3)
        with pytest.raises(ValueError):
            network.set_wan_delays([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            network.set_wan_delays([[0.0, -1.0, 0.0]] + [[0.0] * 3] * 2)

    def test_wan_delay_adds_pure_propagation_latency(self):
        sim, network, collector = build(n=2, lambda_cpu=1.0, network_time=1.0)
        matrix = [[0.0, 25.0], [25.0, 0.0]]
        network.set_wan_delays(matrix)
        network.send(Message(0, (1,), "p", "x"))
        sim.run()
        # emission (1) + medium (1) + WAN (25) + reception (1)
        assert collector.times_for(1) == [28.0]
        # Propagation occupies no contended resource.
        assert network.cpu(0).busy_time == 1.0
        assert network.cpu(1).busy_time == 1.0
        assert network.network_resource.busy_time == 1.0

    def test_clearing_the_matrix_restores_lan_timing(self):
        sim, network, collector = build(n=2)
        network.set_wan_delays([[0.0, 25.0], [25.0, 0.0]])
        network.set_wan_delays(None)
        network.send(Message(0, (1,), "p", "x"))
        sim.run()
        assert collector.times_for(1) == [3.0]


class TestWanProfiles:
    def test_duplicate_profile_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_wan_profile(wan_profile("wan-3dc"))

    def test_unknown_profile_names_the_registered_ones(self):
        with pytest.raises(ValueError, match="wan-3dc"):
            wan_profile("wan-nowhere")


class TestGrayFaults:
    def build_with_rng(self, n=2, seed=1):
        import random

        sim, network, collector = build(n=n)
        network.set_link_rng(random.Random(seed))
        return sim, network, collector

    def test_lossy_link_needs_a_random_stream(self):
        _sim, network, _collector = build(n=2)
        with pytest.raises(RuntimeError):
            network.degrade_link(0, 1, loss_probability=0.5)

    def test_certain_loss_drops_every_frame(self):
        sim, network, collector = self.build_with_rng()
        network.degrade_link(0, 1, loss_probability=1.0)
        for _ in range(5):
            network.send(Message(0, (1,), "p", "x"))
        sim.run()
        assert collector.deliveries == []
        assert network.stats.dropped_lossy_link == 5

    def test_certain_duplication_delivers_two_copies(self):
        sim, network, collector = self.build_with_rng()
        network.degrade_link(0, 1, duplicate_probability=1.0)
        network.send(Message(0, (1,), "p", "x"))
        sim.run()
        assert len(collector.deliveries) == 2
        assert network.stats.duplicated_link == 1

    def test_zero_probabilities_restore_the_link(self):
        sim, network, collector = self.build_with_rng()
        network.degrade_link(0, 1, loss_probability=1.0)
        network.degrade_link(0, 1)
        network.send(Message(0, (1,), "p", "x"))
        sim.run()
        assert len(collector.deliveries) == 1
        assert network.stats.dropped_lossy_link == 0

    def test_out_of_range_probability_rejected(self):
        _sim, network, _collector = self.build_with_rng()
        with pytest.raises(ValueError):
            network.degrade_link(0, 1, loss_probability=1.5)

    def test_degrade_cpu_slows_only_that_process(self):
        sim, network, collector = build(n=2, lambda_cpu=1.0, network_time=1.0)
        network.degrade_cpu(1, 5.0)
        network.send(Message(0, (1,), "p", "x"))
        sim.run()
        # Reception costs 5 lambda on the degraded CPU: 1 + 1 + 5.
        assert collector.times_for(1) == [7.0]
        assert network.cpu(0).rate_factor == 1.0

    def test_restore_cpu_returns_to_full_speed(self):
        sim, network, collector = build(n=2)
        network.degrade_cpu(1, 5.0)
        network.restore_cpu(1)
        network.send(Message(0, (1,), "p", "x"))
        sim.run()
        assert collector.times_for(1) == [3.0]
