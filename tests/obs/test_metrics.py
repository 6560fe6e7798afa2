"""MetricsRegistry: counters and gauges."""

from repro.obs import MetricsRegistry


class TestCountersAndGauges:
    def test_counter_get_or_create_and_inc(self):
        registry = MetricsRegistry()
        registry.counter("commit.rw").inc()
        registry.counter("commit.rw").inc(4)
        assert registry.counter_value("commit.rw") == 5
        assert registry.counter_value("never.touched") == 0
        assert registry.counters_dict() == {"commit.rw": 5}

    def test_gauge_watermarks(self):
        gauge = MetricsRegistry().gauge("vc.lag")
        gauge.set(3)
        gauge.set(7)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.maximum == 7
        assert gauge.minimum == 2

    def test_gauge_first_set_initializes_both_watermarks(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(-5)
        assert gauge.maximum == -5 and gauge.minimum == -5

