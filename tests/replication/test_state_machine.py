"""Unit tests for the replicated state machine substrate."""

import pytest

from repro.replication.state_machine import Command, KeyValueStore


class TestKeyValueStore:
    def test_put_and_get(self):
        store = KeyValueStore()
        assert store.apply(Command("put", "a", 1)) == ("ok", "a")
        assert store.apply(Command("get", "a")) == ("value", 1)

    def test_get_missing_key(self):
        assert KeyValueStore().apply(Command("get", "missing")) == ("value", None)

    def test_delete(self):
        store = KeyValueStore()
        store.apply(Command("put", "a", 1))
        assert store.apply(Command("delete", "a")) == ("deleted", True)
        assert store.apply(Command("delete", "a")) == ("deleted", False)

    def test_increment_from_zero(self):
        store = KeyValueStore()
        assert store.apply(Command("increment", "counter")) == ("value", 1)
        assert store.apply(Command("increment", "counter", 5)) == ("value", 6)

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError):
            KeyValueStore().apply(Command("explode", "a"))

    def test_snapshot_is_sorted_and_comparable(self):
        a, b = KeyValueStore(), KeyValueStore()
        a.apply(Command("put", "x", 1))
        a.apply(Command("put", "y", 2))
        b.apply(Command("put", "y", 2))
        b.apply(Command("put", "x", 1))
        assert a.snapshot() == b.snapshot() == (("x", 1), ("y", 2))

    def test_determinism_same_commands_same_state(self):
        commands = [Command("put", "k", i) for i in range(10)] + [
            Command("increment", "c") for _ in range(5)
        ]
        a, b = KeyValueStore(), KeyValueStore()
        for command in commands:
            a.apply(command)
            b.apply(command)
        assert a.snapshot() == b.snapshot()

    def test_direct_get_helper(self):
        store = KeyValueStore()
        store.apply(Command("put", "a", "v"))
        assert store.get("a") == "v"
        assert store.get("zzz", "default") == "default"
