"""Metrics primitives: counters and gauges.

The registry subsumes the ad-hoc accounting that used to live in
:class:`~repro.core.interface.SchedulerCounters` (a bare
:class:`collections.Counter`) and the hand-wired fields of
:class:`~repro.bench.metrics.RunMetrics`: scheduler counters are now thin
wrappers over registry counters, so every experiment table and every
exporter reads from one source of truth.  Latency distributions are
:class:`~repro.sim.stats.Summary` objects on the run's metrics, not here.
"""

from __future__ import annotations


class Counter:
    """Monotone event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """Last-value-wins instantaneous measurement, with watermarks."""

    __slots__ = ("name", "value", "maximum", "minimum", "_touched")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.maximum = 0.0
        self.minimum = 0.0
        self._touched = False

    def set(self, value: float) -> None:
        if not self._touched:
            self.maximum = self.minimum = value
            self._touched = True
        else:
            if value > self.maximum:
                self.maximum = value
            if value < self.minimum:
                self.minimum = value
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value} max={self.maximum}>"


class MetricsRegistry:
    """Name-indexed registry of counters and gauges.

    Instruments are created on first touch (like labels in most metrics
    systems); reads of untouched names return zero without creating.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    # -- get-or-create ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    # -- reads ------------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def counters_dict(self) -> dict[str, int]:
        """All counters as ``{name: value}`` — the legacy ``as_dict`` shape."""
        return {name: c.value for name, c in self._counters.items()}
