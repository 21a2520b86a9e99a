"""Unit tests for the named random streams."""

from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(1).stream("workload")
        b = RandomStreams(1).stream("workload")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("workload")
        b = RandomStreams(2).stream("workload")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(1)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_stream_is_cached(self):
        streams = RandomStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_consuming_one_stream_does_not_affect_another(self):
        reference = RandomStreams(9)
        expected = [reference.stream("b").random() for _ in range(5)]

        streams = RandomStreams(9)
        for _ in range(100):
            streams.stream("a").random()
        actual = [streams.stream("b").random() for _ in range(5)]
        assert actual == expected

    def test_seed_property(self):
        assert RandomStreams(42).seed == 42

