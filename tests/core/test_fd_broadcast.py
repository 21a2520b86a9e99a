"""Unit tests for the Chandra-Toueg (FD) atomic broadcast."""

import pytest

from repro import QoSConfig, SystemConfig, build_system
from repro.scenarios.faults import CrashAt, FaultSchedule
from tests.conftest import assert_no_duplicates, assert_prefix_consistent


def fd_system(n=3, seed=11, **overrides):
    return build_system(SystemConfig(n=n, stack="fd", seed=seed, **overrides))


class TestDelivery:
    def test_single_message_delivered_everywhere(self):
        system = fd_system()
        system.start()
        system.broadcast_at(1.0, 0, "hello")
        system.run(until=100.0)
        for pid in range(3):
            assert system.abcast(pid).delivered == [((0, 1), "hello")]

    def test_total_order_with_concurrent_senders(self):
        system = fd_system()
        system.start()
        for i in range(10):
            system.broadcast_at(1.0 + 0.3 * i, i % 3, f"m{i}")
        system.run(until=1000.0)
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        assert all(len(seq) == 10 for seq in sequences.values())

    def test_messages_from_same_sender_delivered_in_fifo_order(self):
        system = fd_system()
        system.start()
        for i in range(5):
            system.broadcast_at(1.0 + i, 1, f"m{i}")
        system.run(until=500.0)
        delivered = [payload for _bid, payload in system.abcast(0).delivered]
        assert delivered == [f"m{i}" for i in range(5)]

    def test_payloads_preserved(self):
        system = fd_system()
        system.start()
        payload = {"nested": [1, 2, 3]}
        system.broadcast_at(1.0, 2, payload)
        system.run(until=100.0)
        assert system.abcast(0).delivered[0][1] == payload

    def test_broadcast_from_crashed_process_never_delivered(self):
        system = fd_system()
        system.start()
        FaultSchedule([CrashAt(0.5, 1)]).apply(system)
        system.broadcast_at(1.0, 1, "ghost")
        system.run(until=500.0)
        assert all(abcast.delivered == [] for abcast in system.abcasts)


class TestAggregation:
    def test_burst_is_ordered_by_few_consensus_instances(self):
        system = fd_system()
        system.start()
        # 20 messages within 2 ms: far less than 20 consensus instances must
        # be needed thanks to aggregation.
        for i in range(20):
            system.broadcast_at(1.0 + 0.1 * i, i % 3, f"m{i}")
        system.run(until=1000.0)
        instances = system.abcasts[0].log.length
        assert all(len(seq) == 20 for seq in system.delivery_sequences().values())
        assert instances <= 12


class TestCrashes:
    def test_delivery_continues_after_coordinator_crash(self):
        system = fd_system(fd=QoSConfig(detection_time=10.0))
        system.start()
        system.broadcast_at(1.0, 1, "before")
        FaultSchedule([CrashAt(50.0, 0)]).apply(system)
        system.broadcast_at(60.0, 1, "after-1")
        system.broadcast_at(70.0, 2, "after-2")
        system.run(until=2000.0)
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences, processes=[1, 2])
        assert len(sequences[1]) == 3
        assert len(sequences[2]) == 3

    def test_uniformity_crashed_process_deliveries_are_a_prefix(self):
        system = fd_system(fd=QoSConfig(detection_time=10.0))
        system.start()
        for i in range(8):
            system.broadcast_at(1.0 + 5 * i, (i % 2) + 1, f"m{i}")
        FaultSchedule([CrashAt(22.0, 0)]).apply(system)
        system.run(until=2000.0)
        sequences = system.delivery_sequences()
        # Uniform atomic broadcast: even the crashed process's deliveries must
        # be a prefix of the agreed order.
        assert_prefix_consistent(sequences)

    def test_tolerates_f_crashes_n7(self):
        system = fd_system(n=7, fd=QoSConfig(detection_time=10.0))
        system.start()
        FaultSchedule([CrashAt(30.0 + pid, pid) for pid in (4, 5, 6)]).apply(system)
        for i in range(10):
            system.broadcast_at(1.0 + 10 * i, i % 4, f"m{i}")
        system.run(until=5000.0)
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences, processes=[0, 1, 2, 3])
        assert all(len(sequences[pid]) == 10 for pid in range(4))

    def test_blocks_without_majority(self):
        system = fd_system(fd=QoSConfig(detection_time=5.0))
        system.start()
        FaultSchedule([CrashAt(0.5, 1), CrashAt(0.5, 2)]).apply(system)
        system.broadcast_at(10.0, 0, "stuck")
        system.run(until=2000.0)
        # With only 1 of 3 processes alive no message can be ordered.
        assert system.abcast(0).delivered == []


class TestRenumbering:
    def test_renumbering_moves_coordinator_away_from_crashed_process(self):
        system = fd_system(fd=QoSConfig(detection_time=5.0))
        system.start()
        FaultSchedule([CrashAt(20.0, 0)]).apply(system)
        for i in range(12):
            system.broadcast_at(30.0 + 10 * i, 1 + (i % 2), f"m{i}")
        system.run(until=5000.0)
        abcast = system.abcasts[1]
        # After a while the coordinator order must start with a live process.
        order = abcast._coordinator_order_for(abcast.log.length + 1)
        assert order[0] != 0
        assert all(len(seq) == 12 for pid, seq in system.delivery_sequences().items() if pid != 0)

    def test_direct_message_to_fd_abcast_rejected(self):
        system = fd_system()
        with pytest.raises(RuntimeError):
            system.abcasts[0].on_message(1, ("bogus",))
