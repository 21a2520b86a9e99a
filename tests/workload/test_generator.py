"""Unit tests for the Poisson workload generator."""

import pytest

from repro import SystemConfig, build_system
from repro.workload.generator import PoissonWorkload


def make_system(seed=21):
    return build_system(SystemConfig(n=3, stack="fd", seed=seed))


def record_sends(workload):
    """``(index, sender, time)`` of every arrival ``workload`` sends from now on."""
    sent = []
    workload.add_sent_callback(lambda index, bid, time: sent.append((index, bid.sender, time)))
    return sent


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
        sent = record_sends(workload)
        workload.schedule_messages(20)
        system.run(until=100_000.0)
        assert [index for index, _sender, _time in sent] == list(range(20))

    def test_senders_restricted(self):
        system = make_system()
        workload = PoissonWorkload(system, 100.0, senders=[1, 2])
        sent = record_sends(workload)
        workload.schedule_messages(30)
        system.run(until=100_000.0)
        assert {sender for _index, sender, _time in sent} <= {1, 2}

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
            sent = record_sends(workload)
            workload.schedule_messages(15)
            system.run(until=100_000.0)
            return [(round(time, 6), sender) for _index, sender, time in sent]

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)

    def test_payload_names_the_arrival_index(self):
        system = make_system()
        workload = PoissonWorkload(system, 50.0)
        workload.schedule_messages(3)
        system.run(until=100_000.0)
        delivered = [p for _b, p in system.abcast(0).delivered]
        assert sorted(delivered) == ["workload-0", "workload-1", "workload-2"]

    def test_reassign_crashed_sends_through_the_next_live_sender(self):
        system = make_system()
        workload = PoissonWorkload(system, 100.0, senders=[1, 2], reassign_crashed=True)
        sent = record_sends(workload)
        system.processes[1].crash()
        workload.schedule_messages(20)
        system.run(until=100_000.0)
        assert len(sent) == 20
        assert {sender for _index, sender, _time in sent} == {2}
