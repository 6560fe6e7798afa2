"""Classified retries: backoff with deterministic jitter and retry budgets.

``Database.run`` used to retry *any* :class:`TransactionAborted` up to N
times, immediately — a retry storm amplifier and a bug (it happily retried
errors no retry can fix).  This module supplies the three pieces of a
well-behaved retry loop:

* **classification** — delegated to :func:`repro.errors.is_retryable`:
  contention and transient infrastructure aborts retry; deadline expiry,
  user aborts, :class:`CorruptLogError`, :class:`ProtocolError`, and user
  exceptions propagate immediately;
* **backoff** — :class:`BackoffPolicy`, exponential with full
  deterministic jitter drawn from a named
  :class:`~repro.sim.random_streams.RandomStreams` stream, so the same
  master seed always produces the same retry schedule (the property
  ``tests/sim`` asserts);
* **budget** — :class:`RetryBudget`, a token bucket spent on every retry
  and refilled by successes, so a fleet of clients cannot convert an
  overload blip into a sustained retry storm.  An exhausted budget turns
  a retryable error into a terminal one.

:meth:`BackoffPolicy.delay` is the one back-off formula:
:class:`repro.faults.RetryPolicy` (the courier-level retransmit policy) is
this policy plus an attempt limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import is_retryable  # re-exported for callers  # noqa: F401


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


class RetryBudget:
    """Token bucket limiting how many retries a client may issue.

    Every retry spends one token; every *success* earns back
    ``refill_per_success`` tokens (capped at ``capacity``).  When the
    bucket is empty a retryable failure becomes terminal — under sustained
    overload each client degrades to roughly ``refill_per_success``
    retries per success instead of ``retries`` per attempt, which is what
    stops a shed-retry feedback loop.
    """

    def __init__(self, capacity: float = 10.0, refill_per_success: float = 0.5):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = float(capacity)
        self.refill_per_success = float(refill_per_success)
        self._tokens = float(capacity)
        #: Retries denied because the bucket was empty.
        self.exhausted = 0

    @property
    def tokens(self) -> float:
        return self._tokens

    def try_spend(self) -> bool:
        """Take one token for a retry; False when the budget is exhausted."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        self.exhausted += 1
        return False

    def record_success(self) -> None:
        self._tokens = min(self.capacity, self._tokens + self.refill_per_success)
