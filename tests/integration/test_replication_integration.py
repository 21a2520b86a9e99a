"""Integration test: a replicated key-value store stays consistent end to end."""

from repro import QoSConfig, SystemConfig, build_system
from repro.replication.service import ReplicatedService
from repro.replication.state_machine import Command
from repro.scenarios.faults import CrashAt, FaultSchedule


class TestReplicatedStoreEndToEnd:
    def test_store_consistent_across_sequencer_crash_and_suspicions(self, algorithm):
        config = SystemConfig(
            n=5,
            stack=algorithm,
            seed=91,
            fd=QoSConfig(
                detection_time=20.0, mistake_recurrence_time=500.0, mistake_duration=10.0
            ),
        )
        system = build_system(config)
        service = ReplicatedService(system)
        system.start()
        for i in range(40):
            sender = 1 + i % 4
            service.sim.post_at(
                5.0 + 12.0 * i,
                service.submit,
                sender,
                Command("increment", f"key-{i % 5}", client=sender, request_id=i),
            )
        FaultSchedule([CrashAt(150.0, 0)]).apply(system)
        system.run(until=60_000.0, max_events=3_000_000)

        assert service.replicas_consistent()
        correct = system.correct_processes()
        snapshots = {service.replicas[pid].snapshot() for pid in correct}
        assert len(snapshots) == 1
        # Every submitted command was executed exactly once: the five counters
        # sum to the number of requests.
        state = dict(service.replicas[correct[0]].snapshot())
        assert sum(state.values()) == 40

    def test_response_times_track_first_delivery(self, algorithm):
        system = build_system(SystemConfig(n=3, stack=algorithm, seed=93))
        service = ReplicatedService(system)
        system.start()
        for i in range(10):
            service.sim.post_at(1.0 + 5 * i, service.submit, i % 3, Command("put", f"k{i}", i))
        system.run(until=5_000.0)
        times = service.response_times()
        assert len(times) == 10
        assert all(time > 0 for time in times)
