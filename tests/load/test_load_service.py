"""Tests for the admission-controlled load-tested service.

Includes the fault-schedule suite: the replicated KV service under
crash/recovery mid-load must keep its applied logs convergent and must
neither lose nor duplicate the reply of any acknowledged request.
"""

import pytest

from repro import QoSConfig, SystemConfig, build_system
from repro.load.clients import ClosedLoopClients, CommandMix, OpenLoopClients
from repro.load.service import AdmissionConfig, LoadTestedService
from repro.replication.state_machine import Command
from repro.scenarios.faults import CrashAt, FaultSchedule, RecoverAt


def make_service(algorithm="fd", n=3, seed=61, **kwargs):
    overrides = kwargs.pop("config", {})
    system = build_system(SystemConfig(n=n, stack=algorithm, seed=seed, **overrides))
    return system, LoadTestedService(system, **kwargs)


def put(i, client=0):
    return Command("put", f"k{i}", i, client=client, request_id=i)


class TestAdmission:
    def test_unbounded_window_admits_everything(self, algorithm):
        system, service = make_service(algorithm)
        for i in range(20):
            service.sim.post_at(1.0 + i, service.submit, 0, put(i))
        system.run(until=5000.0)
        assert service.outcome_counts() == {
            "admitted": 20, "queued": 0, "shed": 0, "local_reads": 0
        }

    def test_window_queues_then_sheds(self):
        system, service = make_service(
            admission=AdmissionConfig(max_inflight=2, max_queue=3)
        )
        system.start()
        statuses = [service.submit(0, put(i)).status for i in range(7)]
        assert statuses == [
            "admitted", "admitted", "queued", "queued", "queued", "shed", "shed"
        ]
        assert service.inflight == 2
        assert service.queue_depth == 3
        assert service.queue_depth_hwm == 3
        system.run(until=5000.0)
        # Queued requests were admitted as the window freed; all complete.
        assert service.queue_depth == 0
        assert service.inflight == 0
        completed = [r for r in service.requests if not r.shed]
        assert len(completed) == 5
        assert all(r.response_time is not None for r in completed)

    def test_shed_requests_complete_immediately_without_reply(self):
        system, service = make_service(
            admission=AdmissionConfig(max_inflight=1, max_queue=0)
        )
        system.start()
        service.submit(0, put(0))
        shed = service.submit(0, put(1))
        assert shed.status == "shed"
        assert shed.completed and shed.shed
        assert shed.reply is None and shed.response_time is None

    def test_queued_requests_complete_in_fifo_order(self):
        system, service = make_service(
            admission=AdmissionConfig(max_inflight=1, max_queue=8)
        )
        system.start()
        for i in range(6):
            service.submit(0, put(i))
        system.run(until=10_000.0)
        ordered = [r.command.key for r in service.requests if not r.shed]
        applied = [c.key for c in service.applied_log[0]]
        assert applied == ordered == [f"k{i}" for i in range(6)]

    def test_queueing_delay_counts_into_response_time(self):
        system, service = make_service(admission=AdmissionConfig(max_inflight=1, max_queue=8))
        system.start()
        first = service.submit(0, put(0))
        queued = service.submit(0, put(1))
        system.run(until=10_000.0)
        assert queued.response_time > first.response_time

    def test_invalid_admission_rejected(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_inflight=-1)
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue=-1)
        with pytest.raises(ValueError):
            make_service(consistency="eventual")


class TestConsistencyModes:
    def test_local_get_bypasses_broadcast_and_window(self):
        system, service = make_service(
            consistency="local",
            admission=AdmissionConfig(max_inflight=1, max_queue=0),
        )
        system.start()
        service.submit(0, put(0))  # occupies the whole window
        read = service.submit(0, Command("get", "k0", client=1, request_id=1))
        assert read.status == "local"
        assert read.completed and not read.shed
        assert service.local_reads == 1

    def test_local_reads_can_be_stale(self):
        system, service = make_service(consistency="local")
        system.start()
        service.submit(1, put(0))
        # Read through a different ingress before anything is delivered.
        stale = service.submit(0, Command("get", "k0", client=1, request_id=1))
        assert stale.reply == ("value", None)
        system.run(until=5000.0)
        fresh = service.submit(0, Command("get", "k0", client=1, request_id=2))
        assert fresh.reply == ("value", 0)

    def test_ordered_mode_orders_reads_too(self, algorithm):
        system, service = make_service(algorithm, consistency="ordered")
        service.sim.post_at(1.0, service.submit, 0, put(0))
        service.sim.post_at(2.0, service.submit, 0, Command("get", "k0", client=1, request_id=1))
        system.run(until=5000.0)
        assert service.local_reads == 0
        get_request = service.requests[1]
        assert get_request.reply == ("value", 0)
        # The read went through the log on every replica.
        for pid in range(3):
            ops = [c.operation for c in service.applied_log[pid]]
            assert ops == ["put", "get"]


class TestFaultSchedules:
    """Satellite: the service under crash/recovery fault schedules."""

    def crashy_run(self, algorithm, *, recover_at=None, seed=71):
        system, service = make_service(
            algorithm,
            n=4,
            seed=seed,
            admission=AdmissionConfig(max_inflight=16, max_queue=32),
            config={"fd": QoSConfig(detection_time=10.0)},
        )
        clients = OpenLoopClients(
            service, offered_load=150.0, num_clients=4, senders=[1, 2, 3]
        )
        clients.schedule_requests(60)
        faults = FaultSchedule([CrashAt(100.0, 0)])
        if recover_at is not None:
            faults.add(RecoverAt(recover_at, 0))
        faults.apply(system)
        system.run(until=20_000.0)
        return system, service

    def test_crash_mid_load_keeps_applied_logs_convergent(self, algorithm):
        _system, service = self.crashy_run(algorithm)
        assert service.replicas_consistent()
        # The survivors all applied every completed request.
        completed = [r for r in service.requests if r.response_time is not None]
        assert len(completed) == 60
        for pid in (1, 2, 3):
            assert len(service.applied_log[pid]) == 60

    def test_crash_recover_mid_load_converges(self, algorithm):
        _system, service = self.crashy_run(algorithm, recover_at=400.0)
        assert service.replicas_consistent()
        completed = [r for r in service.requests if r.response_time is not None]
        assert len(completed) == 60

    def test_no_lost_or_duplicate_replies_for_acknowledged_requests(self, algorithm):
        system, service = self.crashy_run(algorithm, recover_at=400.0)
        acknowledged = [r for r in service.requests if r.response_time is not None]
        # Every acknowledged request is applied exactly once per correct
        # replica: no duplicates (idempotent delivery) and no losses.
        for pid in system.correct_processes():
            log = service.applied_log[pid]
            ids = [(c.client, c.request_id) for c in log]
            assert len(ids) == len(set(ids))
            applied = set(ids)
            for request in acknowledged:
                key = (request.command.client, request.command.request_id)
                assert key in applied

    def test_completion_fires_exactly_once_per_request(self, algorithm):
        system, service = make_service(
            algorithm,
            n=4,
            admission=AdmissionConfig(max_inflight=4, max_queue=8),
            config={"fd": QoSConfig(detection_time=10.0)},
        )
        completions = {}
        service.add_completion_listener(
            lambda request: completions.__setitem__(
                request.index, completions.get(request.index, 0) + 1
            )
        )
        population = ClosedLoopClients(
            service, num_clients=6, think_time=5.0, senders=[1, 2, 3]
        )
        population.start(total_requests=80)
        FaultSchedule([CrashAt(50.0, 0), RecoverAt(300.0, 0)]).apply(system)
        system.run(until=60_000.0)
        assert population.issued == 80
        assert sorted(completions) == list(range(80))
        assert all(count == 1 for count in completions.values())

    def test_a_dequeued_request_leaves_through_a_live_replica(self, algorithm):
        system, service = make_service(
            algorithm,
            admission=AdmissionConfig(max_inflight=1, max_queue=4),
            config={"fd": QoSConfig(detection_time=10.0)},
        )
        FaultSchedule([CrashAt(0.5, 1)]).apply(system)
        system.start()
        first = service.submit(0, put(0))
        queued = service.submit(1, put(1))
        assert queued.status == "queued"
        system.run(until=5000.0)
        # Replica 1 was down when the window freed: the request went out
        # through the next live replica instead of being lost with it.
        assert queued.sender == 2
        assert first.response_time is not None
        assert queued.response_time is not None
        assert service.inflight == 0

    def test_batched_service_survives_crash_schedule(self, algorithm):
        system, service = make_service(
            algorithm,
            n=4,
            seed=73,
            admission=AdmissionConfig(max_inflight=16, max_queue=32),
            config={
                "fd": QoSConfig(detection_time=10.0),
                "max_batch": 4,
                "max_delay": 3.0,
            },
        )
        clients = OpenLoopClients(
            service, offered_load=200.0, num_clients=4, senders=[1, 2, 3]
        )
        clients.schedule_requests(60)
        FaultSchedule([CrashAt(80.0, 0), RecoverAt(400.0, 0)]).apply(system)
        system.run(until=20_000.0)
        assert service.replicas_consistent()
        completed = [r for r in service.requests if r.response_time is not None]
        assert len(completed) == 60


class TestInstrumentation:
    def test_service_hooks_feed_the_metrics_snapshot(self):
        from repro.obs.export import metrics_snapshot

        system, service = make_service(
            admission=AdmissionConfig(max_inflight=2, max_queue=2),
            config={"instrument": True},
        )
        system.start()
        mix = CommandMix(put=1.0, get=0.0, increment=0.0, delete=0.0)
        clients = OpenLoopClients(service, offered_load=500.0, mix=mix)
        clients.schedule_requests(50)
        system.run(until=20_000.0)
        snapshot = metrics_snapshot(system, scenario="unit")
        counters = snapshot["counters"]
        assert counters["service.requests"] == 50
        assert counters.get("service.requests.admitted", 0) == service.admitted
        assert counters.get("service.requests.queued", 0) == service.queued
        assert counters.get("service.requests.shed", 0) == service.shed
        replies = counters.get("service.replies", 0)
        assert replies == sum(
            1 for r in service.requests if r.response_time is not None
        )
        assert snapshot["gauges"]["service.inflight_hwm"] == service.inflight_hwm
        assert "service.response_time" in snapshot["histograms"]

    def test_reported_response_time_includes_the_queue_wait(self):
        system, service = make_service(
            seed=5,
            admission=AdmissionConfig(max_inflight=1, max_queue=4),
            config={"instrument": True},
        )
        for i in range(3):
            service.sim.post_at(1.0, service.submit, 0, put(i))
        system.run(until=5000.0)
        times = [request.response_time for request in service.requests]
        assert [round(t) for t in times] == [7, 16, 25]
        obs = system.obs
        assert obs.histograms["service.response_time"] == times
        assert [e["rt"] for e in obs.events if e["ev"] == "service_reply"] == times
        assert obs.counters["service.replies"] == 3
