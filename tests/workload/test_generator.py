"""Unit tests for the Poisson workload generator."""

import pytest

from repro import SystemConfig, build_system
from repro.workload.generator import PoissonWorkload


def make_system(seed=21):
    return build_system(SystemConfig(n=3, stack="fd", seed=seed))


class TestPoissonWorkload:
    def test_invalid_throughput_rejected(self):
        with pytest.raises(ValueError):
            PoissonWorkload(make_system(), 0.0)

    def test_empty_senders_rejected(self):
        with pytest.raises(ValueError):
            PoissonWorkload(make_system(), 10.0, senders=[])

    def test_negative_count_rejected(self):
        workload = PoissonWorkload(make_system(), 10.0)
        with pytest.raises(ValueError):
            workload.schedule_messages(-1)

    def test_mean_interarrival_conversion(self):
        workload = PoissonWorkload(make_system(), 200.0)
        assert workload.mean_interarrival == pytest.approx(5.0)

    def test_all_scheduled_messages_are_sent(self):
        system = make_system()
        workload = PoissonWorkload(system, 100.0)
        workload.schedule_messages(20)
        system.run(until=100_000.0)
        assert len(workload.sent) == 20
        assert workload.scheduled_count() == 20

    def test_senders_restricted(self):
        system = make_system()
        workload = PoissonWorkload(system, 100.0, senders=[1, 2])
        workload.schedule_messages(30)
        system.run(until=100_000.0)
        assert {sent.sender for sent in workload.sent} <= {1, 2}

    def test_sent_callback_invoked_in_order(self):
        system = make_system()
        workload = PoissonWorkload(system, 100.0)
        seen = []
        workload.add_sent_callback(lambda index, bid, time: seen.append(index))
        workload.schedule_messages(10)
        system.run(until=100_000.0)
        assert seen == list(range(10))

    def test_interarrival_mean_roughly_matches_throughput(self):
        system = make_system()
        workload = PoissonWorkload(system, 200.0)
        last = workload.schedule_messages(2000)
        # 2000 messages at 200/s should span roughly 10 seconds.
        assert 8_000.0 < last < 12_500.0

    def test_same_seed_gives_same_schedule(self):
        def schedule(seed):
            system = make_system(seed)
            workload = PoissonWorkload(system, 50.0)
            workload.schedule_messages(15)
            system.run(until=100_000.0)
            return [(round(s.time, 6), s.sender) for s in workload.sent]

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)

    def test_payload_names_the_arrival_index(self):
        system = make_system()
        workload = PoissonWorkload(system, 50.0)
        workload.schedule_messages(3)
        system.run(until=100_000.0)
        delivered = [p for _b, p in system.abcast(0).delivered]
        assert sorted(delivered) == ["workload-0", "workload-1", "workload-2"]
