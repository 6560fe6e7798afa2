"""Classified retries: one rule for every retry loop.

A retry loop makes three decisions, each written once here:

* **classification** — delegated to :func:`repro.errors.is_retryable`:
  contention and transient infrastructure aborts retry; deadline expiry,
  user aborts, :class:`CorruptLogError`, :class:`ProtocolError`, and user
  exceptions propagate immediately;
* **backoff** — :class:`BackoffPolicy`, exponential with full
  deterministic jitter drawn from a named
  :class:`~repro.sim.random_streams.RandomStreams` stream, so the same
  master seed always produces the same retry schedule (the property
  ``tests/sim`` asserts);
* **limit** — :class:`Retry` counts consecutive failures and turns a
  retryable error terminal once ``limit`` retries are spent.

:class:`Retry` is the rule both client loops share: ``Database.run``
retries in place, and :func:`repro.faults.campaign.backoff_loop` sheds,
sleeps one delay and goes back to its closed loop.
:meth:`BackoffPolicy.delay` is the one back-off formula:
:class:`repro.faults.RetryPolicy` (the courier-level retransmit policy) is
this policy plus an attempt limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import is_retryable


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with deterministic full jitter.

    Attributes:
        base: delay before the first retry (virtual-time units).
        factor: exponential growth per attempt.
        cap: upper bound on the un-jittered delay.
        jitter: half-width of the uniform jitter factor; 0 disables it.
    """

    base: float = 0.5
    factor: float = 2.0
    cap: float = 30.0
    jitter: float = 0.5

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (0-based):
        ``min(cap, base * factor**attempt)`` scaled by a factor uniform in
        ``[1 - jitter, 1 + jitter]``.  Always one draw from ``rng``, so a
        stream shared with other decisions replays the same at any jitter."""
        raw = min(self.cap, self.base * self.factor**attempt)
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * rng.random())

    def schedule(self, attempts: int, rng: random.Random) -> list[float]:
        """The first ``attempts`` delays — handy for tests and reports."""
        return [self.delay(i, rng) for i in range(attempts)]


class Retry:
    """One client's retry state: classify a failure, count it, delay.

    :meth:`failed` re-raises ``error`` unless :func:`is_retryable` holds and
    fewer than ``limit`` retries were spent (None: no limit); otherwise it
    counts the retry and returns ``policy.delay(n, rng)`` for the ``n``-th.
    :meth:`reset` zeroes the count after a success.
    """

    def __init__(
        self, policy: BackoffPolicy, rng: random.Random, limit: int | None = None
    ):
        self.policy = policy
        self.rng = rng
        self.limit = limit
        self.count = 0

    def failed(self, error: BaseException) -> float:
        """The delay before the next attempt, or ``error`` re-raised."""
        if not is_retryable(error) or (
            self.limit is not None and self.count >= self.limit
        ):
            raise error
        delay = self.policy.delay(self.count, self.rng)
        self.count += 1
        return delay

    def reset(self) -> None:
        self.count = 0
