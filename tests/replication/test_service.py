"""Tests for the replicated service (active replication over atomic broadcast)."""


from repro import QoSConfig, SystemConfig, build_system
from repro.replication.service import ReplicatedService
from repro.replication.state_machine import Command
from repro.scenarios.faults import CrashAt, FaultSchedule


def make_service(algorithm="fd", n=3, seed=51, **overrides):
    system = build_system(SystemConfig(n=n, stack=algorithm, seed=seed, **overrides))
    service = ReplicatedService(system)
    system.start()
    return system, service


class TestReplicatedService:
    def test_command_applied_on_all_replicas(self, algorithm):
        system, service = make_service(algorithm)
        service.submit_at(1.0, 0, Command("put", "x", 42, client=1, request_id=1))
        system.run(until=200.0)
        for pid in range(3):
            assert service.replicas[pid].get("x") == 42

    def test_client_gets_reply_and_response_time(self, algorithm):
        system, service = make_service(algorithm)
        service.submit_at(1.0, 1, Command("put", "x", 1, client=7, request_id=1))
        system.run(until=200.0)
        (request,) = service.requests
        assert request.reply == ("ok", "x")
        assert request.response_time is not None and request.response_time > 0

    def test_replicas_apply_in_same_order(self, algorithm):
        system, service = make_service(algorithm)
        for i in range(10):
            service.submit_at(
                1.0 + i * 0.7, i % 3, Command("increment", "counter", client=i, request_id=i)
            )
        system.run(until=2000.0)
        assert service.replicas_consistent()
        states = {replica.snapshot() for replica in service.replicas.values()}
        assert len(states) == 1
        assert service.replicas[0].get("counter") == 10

    def test_consistency_survives_a_crash(self, algorithm):
        system, service = make_service(algorithm, fd=QoSConfig(detection_time=10.0))
        for i in range(8):
            service.submit_at(1.0 + 6 * i, 1 + i % 2, Command("put", f"k{i}", i))
        FaultSchedule([CrashAt(20.0, 0)]).apply(system)
        system.run(until=5000.0)
        assert service.replicas_consistent()
        # The surviving replicas executed every request.
        assert service.replicas[1].snapshot() == service.replicas[2].snapshot()
        assert len(service.applied_log[1]) == 8

    def test_reply_time_is_the_first_delivery(self):
        system, service = make_service("fd", seed=52)
        first_delivery = {}
        for abcast in system.abcasts:
            abcast.add_delivery_listener(
                lambda bid, _payload: first_delivery.setdefault(bid, system.sim.now)
            )
        service.submit_at(1.0, 0, Command("put", "x", 1))
        system.run(until=200.0)
        (request,) = service.requests
        (first,) = first_delivery.values()
        assert request.completed_at == first
        assert request.response_time == first - 1.0

    def test_response_times_listing(self, algorithm):
        system, service = make_service(algorithm)
        for i in range(5):
            service.submit_at(1.0 + i, 0, Command("put", f"k{i}", i))
        system.run(until=500.0)
        times = service.response_times()
        assert len(times) == 5
        assert all(t > 0 for t in times)

    def test_non_command_payloads_ignored(self, algorithm):
        system, service = make_service(algorithm)
        system.broadcast_at(1.0, 0, "not-a-command")
        system.run(until=100.0)
        assert service.applied_log[0] == []
