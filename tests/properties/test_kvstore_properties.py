"""Property-based tests of the replicated state machine determinism."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication.state_machine import Command, KeyValueStore

keys = st.sampled_from(["a", "b", "c", "d"])

commands = st.one_of(
    st.builds(Command, st.just("put"), keys, st.integers(min_value=-100, max_value=100)),
    st.builds(Command, st.just("get"), keys),
    st.builds(Command, st.just("delete"), keys),
    st.builds(Command, st.just("increment"), keys, st.integers(min_value=1, max_value=5)),
)


class TestKeyValueStoreProperties:
    @given(script=st.lists(commands, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_same_script_same_state(self, script):
        a, b = KeyValueStore(), KeyValueStore()
        replies_a = [a.apply(command) for command in script]
        replies_b = [b.apply(command) for command in script]
        assert replies_a == replies_b
        assert a.snapshot() == b.snapshot()

    @given(script=st.lists(commands, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_reads_never_modify_state(self, script):
        store = KeyValueStore()
        for command in script:
            store.apply(command)
        before = store.snapshot()
        store.apply(Command("get", "a"))
        store.apply(Command("get", "zzz"))
        assert store.snapshot() == before
