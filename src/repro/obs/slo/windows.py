"""EWMA baselines for the streaming SLO engine's windowed objectives.

The engine (:mod:`repro.obs.slo.engine`) chops virtual time into tumbling
windows of fixed width ``W`` — window ``k`` covers the half-open interval
``[k*W, (k+1)*W)`` — and each objective accumulates the samples of its
signal over a window and judges them when it closes.  Half-open intervals
make boundary behavior exact: a sample stamped precisely at ``k*W`` belongs
to window ``k``, never to ``k-1``, so two replays of the same trace always
bucket identically.

:class:`Ewma` is the anomaly baseline: an exponentially weighted moving
mean of per-window values, updated only from windows the detector accepted
as normal, so a sustained anomaly cannot drag the baseline up to meet it.
"""

from __future__ import annotations


class Ewma:
    """Exponentially weighted baseline with a relative-deviation detector.

    ``update`` folds a per-window value into the moving mean; the engine
    only calls it for windows that did *not* violate, so breaches never
    contaminate the baseline.  The detector is not ``ready`` until
    ``warmup`` windows have been absorbed — before that, no anomaly
    verdicts are issued (a cold detector judging its first window against
    nothing is pure noise).
    """

    __slots__ = ("alpha", "warmup", "mean", "observations")

    def __init__(self, alpha: float = 0.3, warmup: int = 3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        self.alpha = alpha
        self.warmup = warmup
        self.mean = 0.0
        self.observations = 0

    @property
    def ready(self) -> bool:
        return self.observations >= self.warmup

    def update(self, value: float) -> None:
        value = float(value)
        if self.observations == 0:
            self.mean = value
        else:
            self.mean += self.alpha * (value - self.mean)
        self.observations += 1

    def relative_deviation(self, value: float) -> float:
        """``(value - mean) / mean`` — how far above baseline, fractionally.

        0.0 when the baseline is not ready or sits at zero (a zero
        baseline means the signal has been flat-zero; any positive value
        is then judged by the objective's absolute ceiling instead).
        """
        if not self.ready or self.mean <= 0.0:
            return 0.0
        return (value - self.mean) / self.mean
