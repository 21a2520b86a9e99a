"""Unit tests for the failure detector interface."""

from repro.failure_detectors.interface import FailureDetector


class TestFailureDetector:
    def test_monitors_everyone_but_owner(self):
        detector = FailureDetector(1, range(4))
        assert detector.monitored == {0, 2, 3}

    def test_initially_trusts_everyone(self):
        detector = FailureDetector(0, range(3))
        assert detector.suspected() == set()

    def test_force_suspect_and_trust(self):
        detector = FailureDetector(0, range(3))
        detector.force_suspect(1)
        assert detector.is_suspected(1)
        detector.force_trust(1)
        assert not detector.is_suspected(1)

    def test_listeners_notified_on_change_only(self):
        detector = FailureDetector(0, range(3))
        events = []
        detector.add_listener(lambda pid, suspected: events.append((pid, suspected)))
        detector.force_suspect(1)
        detector.force_suspect(1)  # no change, no event
        detector.force_trust(1)
        assert events == [(1, True), (1, False)]

    def test_event_counters(self):
        detector = FailureDetector(0, range(3))
        events = []
        detector.add_listener(lambda pid, suspected: events.append(suspected))
        detector.force_suspect(1)
        detector.force_trust(1)
        detector.force_suspect(2)
        assert events.count(True) == 2
        assert events.count(False) == 1

    def test_owner_never_suspected(self):
        detector = FailureDetector(0, range(3))
        detector.force_suspect(0)
        assert not detector.is_suspected(0)

    def test_unmonitored_process_ignored(self):
        detector = FailureDetector(0, [1])
        detector.force_suspect(5)
        assert detector.suspected() == set()

