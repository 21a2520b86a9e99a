"""Unit tests for the latency recorder."""

import pytest

from repro import SystemConfig, build_system
from repro.core.types import BroadcastID
from repro.metrics.latency import LatencyRecorder
from repro.metrics.stats import summarize


class TestStandaloneRecorder:
    def test_latency_is_first_delivery_minus_broadcast(self):
        recorder = LatencyRecorder()
        bid = BroadcastID(0, 1)
        recorder.record_broadcast(bid, 10.0)
        recorder.record_delivery(bid, 18.0)
        recorder.record_delivery(bid, 14.0)
        recorder.record_delivery(bid, 25.0)
        assert recorder.latency(bid) == pytest.approx(4.0)
        assert recorder.delivery_count(bid) == 3

    def test_unknown_message_has_no_latency(self):
        recorder = LatencyRecorder()
        assert recorder.latency(BroadcastID(0, 1)) is None

    def test_is_delivered(self):
        recorder = LatencyRecorder()
        delivered = BroadcastID(0, 1)
        pending = BroadcastID(0, 2)
        recorder.record_broadcast(delivered, 1.0)
        recorder.record_broadcast(pending, 2.0)
        recorder.record_delivery(delivered, 5.0)
        assert recorder.is_delivered(delivered)
        assert not recorder.is_delivered(pending)

    def test_latencies_can_be_restricted(self):
        recorder = LatencyRecorder()
        a, b = BroadcastID(0, 1), BroadcastID(1, 1)
        for bid, start in ((a, 0.0), (b, 10.0)):
            recorder.record_broadcast(bid, start)
            recorder.record_delivery(bid, start + 7.0)
        assert set(recorder.latencies()) == {a, b}
        assert set(recorder.latencies(only=[a])) == {a}

    def test_summary(self):
        recorder = LatencyRecorder()
        for i in range(5):
            bid = BroadcastID(0, i + 1)
            recorder.record_broadcast(bid, 0.0)
            recorder.record_delivery(bid, float(i + 1))
        summary = summarize(recorder.latencies().values())
        assert summary.count == 5
        assert summary.mean == pytest.approx(3.0)

    def test_first_broadcast_time_wins(self):
        recorder = LatencyRecorder()
        bid = BroadcastID(0, 1)
        recorder.record_broadcast(bid, 5.0)
        recorder.record_broadcast(bid, 9.0)
        recorder.record_delivery(bid, 12.0)
        assert recorder.latency(bid) == 7.0


class TestAttachedRecorder:
    def test_attached_recorder_tracks_system_messages(self):
        system = build_system(SystemConfig(n=3, stack="fd", seed=3))
        recorder = LatencyRecorder()
        recorder.attach(system)
        system.start()
        system.broadcast_at(5.0, 1, "x")
        system.run(until=100.0)
        (latency,) = recorder.latencies().values()
        assert latency > 0
        bid = next(iter(recorder.latencies()))
        assert recorder.delivery_count(bid) == 3
