"""Unit tests for simulated processes and protocol components."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.process import Component, SimProcess, live_sender


class Echo(Component):
    protocol = "echo"

    def __init__(self, process):
        super().__init__(process)
        self.received = []
        self.started = False
        self.crashed = False

    def start(self):
        self.started = True

    def on_message(self, sender, body):
        self.received.append((sender, body))

    def on_crash(self):
        self.crashed = True


class Unnamed(Component):
    protocol = ""


def build(n=3):
    sim = Simulator()
    network = Network(sim, NetworkConfig(n=n))
    processes = [SimProcess(sim, network, pid) for pid in range(n)]
    components = [Echo(process) for process in processes]
    return sim, network, processes, components


class TestComponents:
    def test_component_requires_protocol_name(self):
        sim, network, processes, _ = build()
        with pytest.raises(ValueError):
            Unnamed(processes[0])

    def test_duplicate_protocol_rejected(self):
        _sim, _network, processes, _ = build()
        with pytest.raises(ValueError):
            Echo(processes[0])

    def test_start_hook_invoked(self):
        _sim, _network, processes, components = build()
        for process in processes:
            process.start()
        assert all(component.started for component in components)

    def test_component_lookup(self):
        _sim, _network, processes, components = build()
        assert processes[0].component("echo") is components[0]
        assert list(processes[0].components()) == [components[0]]

    def test_message_dispatch_to_component(self):
        sim, _network, _processes, components = build()
        components[0].send([1, 2], "hello")
        sim.run()
        assert components[1].received == [(0, "hello")]
        assert components[2].received == [(0, "hello")]

    def test_send_one_unicast(self):
        sim, _network, _processes, components = build()
        components[0].send_one(2, "direct")
        sim.run()
        assert components[1].received == []
        assert components[2].received == [(0, "direct")]

    def test_unknown_protocol_raises(self):
        sim, _network, processes, _components = build()
        processes[0].send("missing", [1], "x")
        with pytest.raises(RuntimeError):
            sim.run()

    def test_component_convenience_accessors(self):
        sim, _network, processes, components = build()
        assert components[0].pid == 0
        assert components[0].sim is sim
        assert components[0].now == 0.0


class TestTimers:
    def test_timer_fires(self):
        sim, _network, processes, _components = build()
        fired = []
        processes[0].set_timer(5.0, fired.append, "tick")
        sim.run()
        assert fired == ["tick"]

    def test_timer_skipped_after_crash(self):
        sim, _network, processes, _components = build()
        fired = []
        processes[0].set_timer(5.0, fired.append, "tick")
        sim.schedule(1.0, processes[0].crash)
        sim.run()
        assert fired == []


class TestSendRouting:
    """``send`` remembers, per destination set, the tuple without itself."""

    def test_remote_destinations_match_the_uncached_message(self):
        from repro.sim.messages import Message

        sim, network, processes, _components = build(n=4)
        sent = []
        network.send = sent.append
        for destinations in ([0, 1, 2, 3], (1, 3), [2], (2,), [1, 1, 2], [0, 1, 2, 3]):
            processes[1].send("echo", destinations, "x")
        for message in sent:
            fresh = Message(1, message.destinations, "echo", "x")
            assert message.remote_destinations() == fresh.remote_destinations()
            assert message.sender == 1 and message.protocol == "echo"
        assert [m.destinations for m in sent] == [
            (0, 1, 2, 3), (1, 3), (2,), (2,), (1, 1, 2), (0, 1, 2, 3)
        ]
        # One entry per distinct destination set, shared by later sends.
        assert sent[0].remote_destinations() is sent[5].remote_destinations()

    def test_remembered_sets_are_bounded(self):
        from repro.sim.process import _REMOTE_CACHE_LIMIT

        sim, _network, processes, components = build(n=3)
        for index in range(3 * _REMOTE_CACHE_LIMIT):
            # Distinct destination tuples (repeats of valid pids).
            processes[0].send("echo", (1,) * (index + 1), index)
        assert len(processes[0]._remote_of) <= _REMOTE_CACHE_LIMIT
        sim.run()
        assert len(components[1].received) == sum(range(1, 3 * _REMOTE_CACHE_LIMIT + 1))


class TestCrash:
    def test_crash_after_fired_timers_counts_no_cancelled_event(self, monkeypatch):
        # crash() cancels every handle the process still holds; the ones
        # that already fired are off the heap and must not push the kernel
        # towards a compaction that has nothing to remove.
        sim, _network, processes, _components = build()
        for index in range(100):
            processes[0].set_timer(1.0 + index, lambda: None)
        sim.run()
        assert sim.events_processed == 100
        processes[0].crash()
        assert sim.cancelled_pending_events == 0
        compactions = []
        original = Simulator._compact
        monkeypatch.setattr(
            Simulator, "_compact", lambda self: (compactions.append(1), original(self))
        )
        for _ in range(10):
            sim.schedule(5.0, lambda: None)
        assert compactions == []
        assert sim.pending_events == 10

    def test_crashed_process_does_not_send(self):
        sim, _network, processes, components = build()
        processes[0].crash()
        components[0].send([1], "x")
        sim.run()
        assert components[1].received == []

    def test_crashed_process_does_not_receive(self):
        sim, _network, processes, components = build()
        processes[1].crash()
        components[0].send([1, 2], "x")
        sim.run()
        assert components[1].received == []
        assert components[2].received == [(0, "x")]

    def test_crash_invokes_component_hook_and_is_idempotent(self):
        _sim, _network, processes, components = build()
        processes[0].crash()
        processes[0].crash()
        assert components[0].crashed
        assert processes[0].crashed

    def test_crash_propagates_to_network(self):
        _sim, network, processes, _components = build()
        processes[2].crash()
        assert network.is_crashed(2)


class TestLiveSender:
    """One rule for every ingress choice: the preferred replica if up, else the next live one."""

    def test_an_up_preferred_sender_is_kept(self):
        _sim, _network, processes, _components = build()
        processes[0].crash()
        assert live_sender(processes, [0, 1, 2], 1) == 1

    def test_a_crashed_sender_passes_to_the_next_one_in_list_order(self):
        _sim, _network, processes, _components = build(n=4)
        processes[1].crash()
        assert live_sender(processes, [0, 1, 2, 3], 1) == 2
        assert live_sender(processes, [3, 1, 0, 2], 1) == 0

    def test_the_search_wraps_around_the_list(self):
        _sim, _network, processes, _components = build()
        processes[2].crash()
        assert live_sender(processes, [0, 1, 2], 2) == 0

    def test_only_the_listed_senders_are_candidates(self):
        _sim, _network, processes, _components = build()
        processes[2].crash()
        assert live_sender(processes, [1, 2], 2) == 1
        processes[1].crash()
        # Process 0 is up but not a sender of this list.
        assert live_sender(processes, [1, 2], 2) == 2

    def test_every_sender_down_keeps_the_preferred(self):
        _sim, _network, processes, _components = build()
        for process in processes:
            process.crash()
        assert live_sender(processes, [0, 1, 2], 1) == 1
