"""Tests for random streams, zipf generation, and stat collectors."""

import random

import pytest

from repro.sim.random_streams import RandomStreams, ZipfGenerator
from repro.sim.stats import Summary, TimeWeighted


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(1).stream("x").random()
        b = RandomStreams(1).stream("x").random()
        assert a == b

    def test_streams_are_independent(self):
        streams = RandomStreams(1)
        sequence_with = [streams.stream("a").random() for _ in range(5)]
        fresh = RandomStreams(1)
        fresh.stream("b").random()  # extra consumer must not perturb "a"
        sequence_without = [fresh.stream("a").random() for _ in range(5)]
        assert sequence_with == sequence_without

    def test_different_names_differ(self):
        streams = RandomStreams(1)
        assert streams.stream("a").random() != streams.stream("b").random()

    def test_stream_identity_cached(self):
        streams = RandomStreams(0)
        assert streams.stream("a") is streams.stream("a")


class TestZipf:
    def test_theta_zero_is_roughly_uniform(self):
        gen = ZipfGenerator(10, 0.0, random.Random(7))
        draws = [gen.draw() for _ in range(10_000)]
        counts = [draws.count(i) for i in range(10)]
        assert min(counts) > 700 and max(counts) < 1300

    def test_high_theta_skews_to_low_indices(self):
        gen = ZipfGenerator(100, 1.2, random.Random(7))
        draws = [gen.draw() for _ in range(5_000)]
        head_share = sum(1 for d in draws if d < 10) / len(draws)
        assert head_share > 0.5, "top 10% of keys should dominate"

    def test_draws_in_range(self):
        gen = ZipfGenerator(5, 0.9, random.Random(1))
        assert all(0 <= gen.draw() < 5 for _ in range(1_000))

    def test_single_key(self):
        gen = ZipfGenerator(1, 2.0, random.Random(1))
        assert gen.draw() == 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0, 0.5, random.Random(1))
        with pytest.raises(ValueError):
            ZipfGenerator(5, -0.1, random.Random(1))


class TestSummary:
    def test_empty_summary_zeroes(self):
        s = Summary()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.p95 == 0.0

    def test_mean_and_extremes(self):
        s = Summary()
        for v in (1, 2, 3, 4):
            s.add(v)
        assert s.mean == 2.5
        assert s.maximum == 4

    def test_quantiles(self):
        s = Summary()
        for v in range(1, 101):
            s.add(v)
        assert s.p50 == 50
        assert s.p95 == 95
        assert s.p99 == 99

    def test_quantile_bounds_checked(self):
        s = Summary()
        s.add(1)
        with pytest.raises(ValueError):
            s.quantile(1.5)



class TestTimeWeighted:
    def test_constant_value(self):
        tw = TimeWeighted(0.0, 5.0)
        tw.update(10.0, 5.0)
        assert tw.average(10.0) == 5.0

    def test_step_function(self):
        tw = TimeWeighted(0.0, 0.0)
        tw.update(5.0, 10.0)   # 0 for [0,5)
        tw.update(10.0, 0.0)   # 10 for [5,10)
        assert tw.average(10.0) == 5.0
        assert tw.maximum == 10.0

    def test_time_backward_rejected(self):
        tw = TimeWeighted(0.0, 0.0)
        tw.update(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(3.0, 1.0)

    def test_zero_span_returns_current(self):
        tw = TimeWeighted(0.0, 7.0)
        assert tw.average(0.0) == 7.0
