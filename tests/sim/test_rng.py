"""Named random streams."""

import pytest

from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_name_gives_identical_sequences(self):
        a = RandomStreams(42).stream("arrivals")
        b = RandomStreams(42).stream("arrivals")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_give_different_sequences(self):
        streams = RandomStreams(42)
        a = [streams.stream("arrivals").random() for _ in range(5)]
        b = [streams.stream("sizes").random() for _ in range(5)]
        assert a != b

    def test_different_seeds_give_different_sequences(self):
        a = [RandomStreams(1).stream("x").random() for _ in range(5)]
        b = [RandomStreams(2).stream("x").random() for _ in range(5)]
        assert a != b

    def test_stream_is_cached(self):
        streams = RandomStreams(0)
        assert streams.stream("x") is streams.stream("x")

    def test_independence_from_creation_order(self):
        first = RandomStreams(7)
        first.stream("a")
        value_after_a = first.stream("b").random()
        second = RandomStreams(7)
        value_direct = second.stream("b").random()
        assert value_after_a == value_direct

    def test_exponential_mean_zero_returns_zero(self):
        assert RandomStreams(0).exponential("x", 0.0) == 0.0

    def test_exponential_is_positive(self):
        streams = RandomStreams(3)
        for _ in range(100):
            assert streams.exponential("d", 0.5) > 0.0

    def test_exponential_mean_roughly_matches(self):
        streams = RandomStreams(5)
        samples = [streams.exponential("d", 2.0) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.1)
