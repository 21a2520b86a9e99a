"""Unit tests for the fixed-sequencer (GM) atomic broadcast."""

from repro import QoSConfig, SystemConfig, build_system
from repro.scenarios.faults import CrashAt, FaultSchedule
from tests.conftest import assert_no_duplicates, assert_prefix_consistent


def gm_system(n=3, seed=13, algorithm="gm", **overrides):
    return build_system(SystemConfig(n=n, stack=algorithm, seed=seed, **overrides))


class TestNormalOperation:
    def test_single_message_delivered_everywhere(self):
        system = gm_system()
        system.start()
        system.broadcast_at(1.0, 1, "hello")
        system.run(until=100.0)
        for pid in range(3):
            assert system.abcast(pid).delivered == [((1, 1), "hello")]

    def test_total_order_with_concurrent_senders(self):
        system = gm_system()
        system.start()
        for i in range(12):
            system.broadcast_at(1.0 + 0.4 * i, i % 3, f"m{i}")
        system.run(until=1000.0)
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert_no_duplicates(sequences)
        assert all(len(seq) == 12 for seq in sequences.values())

    def test_sequencer_is_first_view_member(self):
        system = gm_system()
        system.start()
        assert system.membership(0).is_sequencer()
        assert not system.membership(1).is_sequencer()

    def test_sequencer_delivers_first(self):
        system = gm_system()
        system.start()
        deliveries = []
        system.add_delivery_listener(
            lambda pid, bid, payload: deliveries.append((system.sim.now, pid))
        )
        system.broadcast_at(1.0, 2, "x")
        system.run(until=100.0)
        first_time, first_pid = min(deliveries)
        assert first_pid == 0

    def test_batching_under_burst(self):
        system = gm_system()
        system.start()
        for i in range(20):
            system.broadcast_at(1.0 + 0.1 * i, i % 3, f"m{i}")
        system.run(until=1000.0)
        sequencer = system.abcasts[0]
        assert sequencer.batches_sequenced <= 12
        assert all(len(seq) == 20 for seq in system.delivery_sequences().values())


class TestNonUniformVariant:
    def test_delivers_with_fewer_messages(self):
        uniform = gm_system(algorithm="gm")
        nonuniform = gm_system(algorithm="gm-nonuniform")
        for system in (uniform, nonuniform):
            system.start()
            system.broadcast_at(1.0, 1, "x")
            system.run(until=100.0)
        assert (
            nonuniform.message_stats()["messages_sent"]
            < uniform.message_stats()["messages_sent"]
        )
        assert [p for _b, p in nonuniform.abcast(2).delivered] == ["x"]

    def test_total_order_preserved(self):
        system = gm_system(algorithm="gm-nonuniform")
        system.start()
        for i in range(10):
            system.broadcast_at(1.0 + 0.5 * i, i % 3, f"m{i}")
        system.run(until=500.0)
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences)
        assert all(len(seq) == 10 for seq in sequences.values())

    def test_non_sequencer_delivery_is_faster_than_uniform(self):
        def first_delivery_at(system, pid):
            times = {}
            system.add_delivery_listener(
                lambda p, bid, payload: times.setdefault(p, system.sim.now)
            )
            system.start()
            system.broadcast_at(1.0, 1, "x")
            system.run(until=100.0)
            return times[pid]

        uniform_time = first_delivery_at(gm_system(algorithm="gm"), 2)
        nonuniform_time = first_delivery_at(gm_system(algorithm="gm-nonuniform"), 2)
        assert nonuniform_time < uniform_time


class TestSequencerCrash:
    def test_view_change_resumes_delivery(self):
        system = gm_system(fd=QoSConfig(detection_time=10.0))
        system.start()
        system.broadcast_at(1.0, 1, "before")
        FaultSchedule([CrashAt(30.0, 0)]).apply(system)
        system.broadcast_at(40.0, 1, "during")
        system.broadcast_at(200.0, 2, "after")
        system.run(until=3000.0)
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences, processes=[1, 2])
        assert len(sequences[1]) == 3
        assert system.membership(1).view.sequencer == 1

    def test_messages_in_flight_at_crash_not_lost(self):
        system = gm_system(fd=QoSConfig(detection_time=15.0))
        system.start()
        # Broadcast right before the sequencer crashes: the message must be
        # delivered through the view change (view synchrony) or re-sent.
        FaultSchedule([CrashAt(10.0, 0)]).apply(system)
        system.broadcast_at(10.0, 2, "in-flight")
        system.run(until=3000.0)
        for pid in (1, 2):
            payloads = [p for _b, p in system.abcast(pid).delivered]
            assert "in-flight" in payloads

    def test_uniformity_across_sequencer_crash(self):
        system = gm_system(fd=QoSConfig(detection_time=10.0))
        system.start()
        for i in range(8):
            system.broadcast_at(1.0 + 4 * i, 1 + i % 2, f"m{i}")
        FaultSchedule([CrashAt(17.0, 0)]).apply(system)
        system.run(until=3000.0)
        assert_prefix_consistent(system.delivery_sequences())

    def test_two_crashes_tolerated_n7(self):
        system = gm_system(n=7, fd=QoSConfig(detection_time=10.0))
        system.start()
        FaultSchedule([CrashAt(20.0, 0), CrashAt(120.0, 1)]).apply(system)
        for i in range(10):
            system.broadcast_at(1.0 + 30 * i, 2 + i % 5, f"m{i}")
        system.run(until=10_000.0)
        alive = [2, 3, 4, 5, 6]
        sequences = system.delivery_sequences()
        assert_prefix_consistent(sequences, processes=alive)
        assert all(len(sequences[pid]) == 10 for pid in alive)
        assert system.membership(2).view.sequencer == 2


class TestBroadcastWhileNotOperational:
    def test_broadcast_during_view_change_is_buffered_and_delivered(self):
        system = gm_system(fd=QoSConfig(detection_time=5.0))
        system.start()
        FaultSchedule([CrashAt(10.0, 0)]).apply(system)
        # Right after detection the group is in a view change; broadcasts
        # issued then must still be delivered eventually.
        system.broadcast_at(16.0, 1, "during-view-change")
        system.run(until=3000.0)
        payloads = [p for _b, p in system.abcast(2).delivered]
        assert payloads == ["during-view-change"]
