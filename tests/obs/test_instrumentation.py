"""Unit tests for the instrumentation core: primitives, hooks, subscribers."""

import pytest

from repro.obs import HOOKS, Instrumentation


class TestPrimitives:
    def test_counters_accumulate(self):
        obs = Instrumentation()
        obs.count("x")
        obs.count("x", 2)
        assert obs.counter("x") == 3

    def test_counter_defaults_to_zero(self):
        assert Instrumentation().counter("never-touched") == 0

    def test_observe_appends_to_histogram(self):
        obs = Instrumentation()
        obs.observe("lat", 1.0)
        obs.observe("lat", 3.0)
        assert obs.histograms["lat"] == [1.0, 3.0]

    def test_gauge_max_keeps_high_water_mark(self):
        obs = Instrumentation()
        obs.gauge_max("depth", 5)
        obs.gauge_max("depth", 3)
        obs.gauge_max("depth", 9)
        assert obs.gauges["depth"] == 9

    def test_counters_by_prefix(self):
        obs = Instrumentation()
        obs.count("sim.events")
        obs.count("sim.events.Foo")
        obs.count("messages.sent")
        assert obs.counters_by_prefix("sim.") == {"sim.events": 1, "sim.events.Foo": 1}


class FakeMessage:
    def __init__(self, sender=0, destinations=(1, 2), protocol="rbcast"):
        self.sender = sender
        self.destinations = list(destinations)
        self.protocol = protocol


class TestLifecycle:
    def test_sequenced_is_counted_once_per_message(self):
        obs = Instrumentation()
        obs.abcast_broadcast(1.0, 0, (0, 1), "m")
        obs.abcast_sequenced(4.0, 0, (0, 1))
        obs.abcast_sequenced(5.0, 1, (0, 1))  # later report on another process
        assert obs.counter("abcast.sequenced") == 1
        assert obs.histograms["abcast.broadcast_to_sequence"] == [3.0]

    def test_first_delivery_ends_the_span(self):
        obs = Instrumentation()
        obs.abcast_broadcast(1.0, 0, (0, 1), "m")
        obs.abcast_sequenced(4.0, 0, (0, 1))
        obs.abcast_deliver(6.0, 0, (0, 1), "m")
        obs.abcast_deliver(7.0, 1, (0, 1), "m")
        assert obs.counter("abcast.deliveries") == 2
        assert obs.histograms["abcast.broadcast_to_deliver"] == [5.0]
        assert obs.histograms["abcast.sequence_to_deliver"] == [2.0]
        assert obs.first_delivery_latency((0, 1)) == 5.0

    def test_incomplete_lifecycle_has_no_latency(self):
        obs = Instrumentation()
        obs.abcast_broadcast(1.0, 0, (0, 1), "m")
        assert obs.first_delivery_latency((0, 1)) is None

    def test_message_send_splits_dropped_sends(self):
        obs = Instrumentation()
        obs.message_send(1.0, FakeMessage(protocol="rbcast"))
        obs.message_send(2.0, FakeMessage(protocol="consensus"), dropped=True)
        assert obs.counter("messages.sent") == 1
        assert obs.counter("messages.sent.rbcast") == 1
        assert obs.counter("messages.dropped_sender_crashed") == 1

    def test_suspicion_mistake_duration(self):
        obs = Instrumentation()
        obs.suspicion(100.0, 1, 0, True)
        obs.suspicion(130.0, 1, 0, False)
        assert obs.counter("fd.suspicions") == 1
        assert obs.counter("fd.trusts") == 1
        assert obs.histograms["fd.mistake_duration"] == [30.0]

    def test_crash_suspicion_is_not_a_mistake(self):
        obs = Instrumentation()
        obs.suspicion(100.0, 1, 0, True)  # never trusted again
        assert "fd.mistake_duration" not in obs.histograms

    def test_record_events_off_keeps_counters_only(self):
        obs = Instrumentation(record_events=False)
        obs.message_send(1.0, FakeMessage())
        obs.abcast_broadcast(1.0, 0, (0, 1), "m")
        assert obs.counter("messages.sent") == 1
        assert obs.events == []


class TestSubscribers:
    def test_subscriber_receives_hook_arguments(self):
        obs = Instrumentation()
        seen = []
        obs.subscribe("abcast_deliver", lambda *args: seen.append(args))
        obs.abcast_deliver(6.0, 2, (0, 1), "payload")
        assert seen == [(6.0, 2, (0, 1), "payload")]

    def test_unsubscribe_stops_notifications(self):
        obs = Instrumentation()
        seen = []
        handler = lambda *args: seen.append(args)  # noqa: E731
        obs.subscribe("message_send", handler)
        obs.unsubscribe("message_send", handler)
        obs.message_send(1.0, FakeMessage())
        assert seen == []

    def test_unknown_hook_rejected(self):
        with pytest.raises(ValueError, match="unknown hook"):
            Instrumentation().subscribe("not-a-hook", lambda: None)

    def test_unsubscribe_of_unknown_handler_rejected(self):
        with pytest.raises(ValueError, match="not subscribed"):
            Instrumentation().unsubscribe("message_send", lambda: None)

    def test_subscriber_may_unsubscribe_itself_mid_notify(self):
        obs = Instrumentation()
        seen = []

        def once(*args):
            seen.append(args)
            obs.unsubscribe("message_send", once)

        obs.subscribe("message_send", once)
        obs.message_send(1.0, FakeMessage())
        obs.message_send(2.0, FakeMessage())
        assert len(seen) == 1

    def test_every_declared_hook_exists(self):
        for name in HOOKS:
            assert callable(getattr(Instrumentation(), name))

