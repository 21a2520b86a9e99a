"""Unit tests for the message representation."""

from repro.sim.messages import Message


class TestMessage:
    def test_uids_are_unique(self):
        a = Message(0, (1,), "proto", "x")
        b = Message(0, (1,), "proto", "x")
        assert a.uid != b.uid

    def test_remote_destinations_exclude_sender(self):
        message = Message(0, (0, 1, 2), "proto", "x")
        assert message.remote_destinations() == (1, 2)

    def test_self_only_message_has_no_remote_destinations(self):
        message = Message(0, (0,), "proto", "x")
        assert message.remote_destinations() == ()

    def test_repr_mentions_protocol(self):
        assert "proto" in repr(Message(0, (1,), "proto", "x"))
