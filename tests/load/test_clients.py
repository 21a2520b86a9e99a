"""Tests for the open- and closed-loop client populations."""

import pytest

from repro import SystemConfig, build_system
from repro.load.clients import ClosedLoopClients, CommandMix, OpenLoopClients
from repro.load.service import AdmissionConfig, LoadTestedService
from repro.sim.rng import RandomStreams


def make_service(algorithm="fd", n=3, seed=41, admission=None, **overrides):
    system = build_system(SystemConfig(n=n, stack=algorithm, seed=seed, **overrides))
    return system, LoadTestedService(system, admission=admission)


class TestCommandMix:
    def test_default_mix_draws_valid_commands(self):
        mix = CommandMix()
        rng = RandomStreams(seed=5).stream("mix")
        operations = set()
        for i in range(200):
            command = mix.draw(rng, client=i % 4, request_id=i)
            operations.add(command.operation)
            assert command.request_id == i
            if command.operation == "put":
                assert command.value is not None
            if command.operation == "increment":
                assert command.key.startswith("ctr-")
            else:
                assert command.key.startswith("key-")
        assert operations == {"put", "get", "increment", "delete"}

    def test_draws_are_deterministic_per_seed(self):
        mix = CommandMix()
        first = [
            mix.draw(RandomStreams(seed=5).stream("mix"), 0, i) for i in range(20)
        ]
        second = [
            mix.draw(RandomStreams(seed=5).stream("mix"), 0, i) for i in range(20)
        ]
        assert first == second

    def test_single_operation_mix(self):
        mix = CommandMix(put=0.0, get=1.0, increment=0.0, delete=0.0)
        rng = RandomStreams(seed=5).stream("mix")
        assert all(
            mix.draw(rng, 0, i).operation == "get" for i in range(50)
        )

    @pytest.mark.parametrize(
        "mix", [CommandMix(), CommandMix(put=3.0, get=0.0, increment=1.5, delete=0.25, keyspace=7)]
    )
    def test_the_prebuilt_table_draws_what_the_per_call_table_drew(self, mix):
        """The table used to be rebuilt inside every draw: same picks, same
        ``random()`` then ``randrange()`` consumption of the stream."""

        def per_call_draw(rng):
            weights = (
                ("put", mix.put),
                ("get", mix.get),
                ("increment", mix.increment),
                ("delete", mix.delete),
            )
            pick = rng.random() * sum(weight for _op, weight in weights)
            operation = weights[-1][0]
            for op, weight in weights:
                if pick < weight:
                    operation = op
                    break
                pick -= weight
            return operation, rng.randrange(mix.keyspace)

        rng, oracle_rng = (RandomStreams(seed=9).stream("mix") for _ in range(2))
        for i in range(500):
            command = mix.draw(rng, 0, i)
            operation, key = per_call_draw(oracle_rng)
            assert (command.operation, int(command.key.split("-")[1])) == (operation, key)
        assert rng.getstate() == oracle_rng.getstate()

    def test_the_table_is_not_part_of_the_value(self):
        assert CommandMix(get=0.4) == CommandMix(get=0.4)
        assert "_weights" not in repr(CommandMix()) and "_total" not in repr(CommandMix())

    def test_invalid_mixes_rejected(self):
        with pytest.raises(ValueError):
            CommandMix(put=0.0, get=0.0, increment=0.0, delete=0.0)
        with pytest.raises(ValueError):
            CommandMix(put=-0.1)
        with pytest.raises(ValueError):
            CommandMix(keyspace=0)


class TestOpenLoop:
    def test_schedules_exactly_count_requests(self, algorithm):
        system, service = make_service(algorithm)
        clients = OpenLoopClients(service, offered_load=100.0, num_clients=3)
        clients.schedule_requests(40)
        system.run(until=10_000.0)
        assert clients.issued == 40
        assert len(service.requests) == 40

    def test_uniform_and_poisson_share_the_mean_rate(self):
        times = {}
        for arrival in ("poisson", "uniform"):
            system, service = make_service()
            clients = OpenLoopClients(
                service, offered_load=200.0, arrival=arrival
            )
            times[arrival] = clients.schedule_requests(400)
        # 400 arrivals at 200/s: both disciplines take ~2000 ms.
        for last in times.values():
            assert 1400.0 < last < 2800.0

    def test_identical_seeds_identical_runs(self, algorithm):
        def signature():
            system, service = make_service(algorithm, seed=77)
            OpenLoopClients(service, offered_load=150.0, num_clients=2).schedule_requests(30)
            system.run(until=10_000.0)
            return [
                (r.command.operation, r.command.key, r.submitted_at, r.completed_at)
                for r in service.requests
            ]

        assert signature() == signature()

    def test_invalid_parameters_rejected(self):
        system, service = make_service()
        with pytest.raises(ValueError):
            OpenLoopClients(service, offered_load=0.0)
        with pytest.raises(ValueError):
            OpenLoopClients(service, offered_load=10.0, arrival="bursty")
        with pytest.raises(ValueError):
            OpenLoopClients(service, offered_load=10.0, num_clients=0)

    def test_crashed_ingress_is_skipped(self):
        system, service = make_service(n=3)
        system.start()
        system.process(0).crash()
        clients = OpenLoopClients(service, offered_load=100.0, num_clients=6)
        clients.schedule_requests(30)
        system.run(until=10_000.0)
        assert all(request.sender != 0 for request in service.requests)


class TestClosedLoop:
    def test_each_client_keeps_one_request_outstanding(self, algorithm):
        system, service = make_service(algorithm)
        population = ClosedLoopClients(service, num_clients=4, think_time=10.0)
        in_flight = {}
        max_outstanding = [0]

        original = service.submit

        def tracking_submit(sender, command):
            in_flight[command.client] = in_flight.get(command.client, 0) + 1
            max_outstanding[0] = max(max_outstanding[0], max(in_flight.values()))
            return original(sender, command)

        def done(request):
            in_flight[request.command.client] -= 1

        service.submit = tracking_submit
        service.add_completion_listener(done)
        population.start(total_requests=60)
        system.run(until=100_000.0)
        assert population.issued == 60
        assert max_outstanding[0] == 1

    def test_stops_after_total_requests(self, algorithm):
        system, service = make_service(algorithm)
        population = ClosedLoopClients(service, num_clients=3, think_time=2.0)
        population.start(total_requests=25)
        system.run(until=100_000.0)
        assert population.issued == 25
        assert sum(1 for r in service.requests if r.completed) == 25

    def test_zero_think_time_with_shedding_terminates(self):
        # Every shed completes synchronously; the population must re-submit
        # through the kernel instead of recursing.
        system, service = make_service(
            n=3, admission=AdmissionConfig(max_inflight=1, max_queue=0)
        )
        population = ClosedLoopClients(service, num_clients=5, think_time=0.0)
        population.start(total_requests=300)
        system.run(until=100_000.0)
        assert population.issued == 300
        assert service.shed > 0

    def test_cannot_start_twice(self):
        system, service = make_service()
        population = ClosedLoopClients(service, num_clients=2, think_time=1.0)
        population.start(total_requests=5)
        with pytest.raises(RuntimeError):
            population.start(total_requests=5)

    def test_negative_think_time_rejected(self):
        with pytest.raises(ValueError):
            ClosedLoopClients(make_service()[1], num_clients=2, think_time=-1.0)
