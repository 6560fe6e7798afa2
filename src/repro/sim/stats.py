"""Statistics collectors for simulation metrics."""

from __future__ import annotations

import math
from typing import Sequence


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Exact empirical quantile by the nearest-rank rule: the ``ceil(q*n)``-th
    smallest sample (the smallest at ``q == 0``); 0.0 when there are none."""
    if not samples:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


class Summary:
    """Streaming summary: count, mean, maximum, exact quantiles.

    Keeps all samples for exact quantiles — experiment populations are small
    (thousands), so memory is a non-issue and exactness beats sketching.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._mean = 0.0

    def add(self, value: float) -> None:
        self._samples.append(value)
        self._mean += (value - self._mean) / len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        return self._mean if self._samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def quantile(self, q: float) -> float:
        """Exact empirical quantile (nearest-rank)."""
        return nearest_rank(self._samples, q)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def as_dict(self) -> dict[str, float]:
        """The JSON block artifacts and campaign reports carry."""
        return {
            "count": self.count,
            "mean": round(self.mean, 6),
            "p50": round(self.p50, 6),
            "p95": round(self.p95, 6),
            "p99": round(self.p99, 6),
        }


class TimeWeighted:
    """Time-weighted average of a step function (e.g. counter lag over time)."""

    def __init__(self, start_time: float = 0.0, initial: float = 0.0):
        self._last_time = start_time
        self._value = initial
        self._area = 0.0
        self._start = start_time
        self.maximum = initial

    def update(self, now: float, value: float) -> None:
        if now < self._last_time:
            raise ValueError("time went backward")
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value
        if value > self.maximum:
            self.maximum = value

    def average(self, now: float | None = None) -> float:
        end = self._last_time if now is None else now
        area = self._area + self._value * (end - self._last_time)
        span = end - self._start
        return area / span if span > 0 else self._value
