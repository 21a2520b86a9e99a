"""The event trace of a whole run: what ``Instrumentation.events`` records
and how hook subscribers stack on a live system.

The trace is the one observation path: every send that reaches the network
is a ``send`` record (``from``/``to``/``proto``), every A-delivery an
``adeliver`` record (``pid``/``bid``), and any number of subscribers attach
to and detach from the same hooks in any order.
"""

from collections import Counter

from repro import SystemConfig, build_system
from repro.obs import Instrumentation

ARRIVALS = ((1.0, 0, "a"), (4.0, 1, "b"))


def traced_run(stack="fd", arrivals=ARRIVALS, until=1_000.0):
    system = build_system(SystemConfig(n=3, stack=stack, seed=5, instrument=True))
    system.start()
    for time, sender, payload in arrivals:
        system.broadcast_at(time, sender, payload)
    system.run(until=until)
    return system


def records(system, kind):
    return [event for event in system.obs.events if event["ev"] == kind]


def remote(send):
    return sorted(dest for dest in send["to"] if dest != send["from"])


def delivery_sequence(system, pid):
    return [tuple(event["bid"]) for event in records(system, "adeliver") if event["pid"] == pid]


class TestSendRecords:
    def test_every_network_send_is_recorded(self):
        system = traced_run()
        assert len(records(system, "send")) == system.message_stats()["messages_sent"]

    def test_pattern_identical_across_algorithms(self):
        def pattern(stack):
            sends = records(traced_run(stack), "send")
            return [(round(s["t"], 9), s["from"], remote(s)) for s in sends]

        assert pattern("fd") == pattern("gm")

    def test_counts_by_protocol(self):
        counts = Counter(send["proto"] for send in records(traced_run("fd"), "send"))
        assert counts["rbcast"] >= 2          # the two data messages + decisions
        assert counts["consensus"] >= 2       # proposals and acknowledgements

    def test_multicast_and_unicast_counts(self):
        system = traced_run("fd", arrivals=((1.0, 0, "a"),))
        fanouts = [len(remote(send)) for send in records(system, "send")]
        stats = system.message_stats()
        assert sum(1 for fanout in fanouts if fanout > 1) == stats["multicasts_sent"]
        assert sum(1 for fanout in fanouts if fanout == 1) == stats["unicasts_sent"]

    def test_subscribers_still_see_sends_without_event_records(self):
        system = build_system(SystemConfig(n=3, stack="fd", seed=5))
        obs = system.enable_instrumentation(Instrumentation(record_events=False))
        seen = []
        obs.subscribe("message_send", lambda _t, message, _dropped: seen.append(message))
        system.start()
        system.broadcast_at(1.0, 0, "x")
        system.run(until=500.0)
        assert obs.events == []
        assert len(seen) == system.message_stats()["messages_sent"] > 0


class TestDeliveryRecords:
    def test_every_process_delivers_every_message(self):
        system = traced_run()
        assert len(records(system, "adeliver")) == 2 * 3
        for pid in range(3):
            assert len(delivery_sequence(system, pid)) == 2

    def test_total_order_holds(self):
        system = traced_run()
        sequences = [delivery_sequence(system, pid) for pid in range(3)]
        assert sequences[0] == sequences[1] == sequences[2]

    def test_latency_histogram_matches_the_earliest_records(self):
        system = traced_run()
        broadcast_at = {tuple(e["bid"]): e["t"] for e in records(system, "broadcast")}
        latencies = [
            min(e["t"] for e in records(system, "adeliver") if tuple(e["bid"]) == bid) - started
            for bid, started in broadcast_at.items()
        ]
        assert sorted(system.obs.histograms["abcast.broadcast_to_deliver"]) == sorted(latencies)

    def test_records_are_in_time_order(self):
        times = [event["t"] for event in traced_run("gm").obs.events]
        assert times and times == sorted(times)


class TestStackedSubscribers:
    """Subscribers compose: detaching one, in any order, leaves the others."""

    def run_with(self, stack, subscriptions, detached):
        system = build_system(SystemConfig(n=3, stack=stack, seed=5, instrument=True))
        for hook, fn in subscriptions:
            system.obs.subscribe(hook, fn)
        for hook, fn in detached:
            system.obs.unsubscribe(hook, fn)
        system.start()
        system.broadcast_at(1.0, 0, "x")
        system.run(until=500.0)
        return system

    def test_detach_in_attach_order_detaches_both(self):
        first, second = [], []
        subs = [("message_send", lambda *a: first.append(a)),
                ("message_send", lambda *a: second.append(a))]
        system = self.run_with("fd", subs, detached=subs)
        assert first == [] and second == []
        # The network itself keeps working without any subscriber attached.
        assert system.message_stats()["messages_sent"] > 0

    def test_partial_detach_keeps_the_other_recording(self):
        first, second = [], []
        subs = [("message_send", lambda *a: first.append(a)),
                ("message_send", lambda *a: second.append(a))]
        system = self.run_with("fd", subs, detached=subs[:1])
        assert first == []
        assert len(second) == system.message_stats()["messages_sent"]

    def test_send_and_delivery_subscribers_stack_independently(self):
        sends, deliveries = [], []
        subs = [("message_send", lambda *a: sends.append(a)),
                ("abcast_deliver", lambda *a: deliveries.append(a))]
        self.run_with("gm", subs, detached=subs[:1])
        assert sends == []
        assert len(deliveries) == 3

    def test_delivery_subscriber_detach(self):
        deliveries = []
        subs = [("abcast_deliver", lambda *a: deliveries.append(a))]
        system = self.run_with("fd", subs, detached=subs)
        assert deliveries == []
        assert len(records(system, "adeliver")) == 3
