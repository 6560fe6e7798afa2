"""Per-site circuit breakers for the distributed courier path.

A breaker watches the health of one remote site and fails doomed requests
*fast* instead of letting them join a wait that cannot succeed (e.g. a 2PC
prepare against a partitioned site that will only time out).  Standard
three-state machine:

``closed``
    normal operation; consecutive failures are counted and a success
    resets the count.  At ``failure_threshold`` failures the breaker
    **opens**.
``open``
    all requests are refused (``allow()`` is False) until
    ``recovery_time`` virtual-time units have passed since opening, at
    which point the next ``allow()`` transitions to half-open.
``half_open``
    a single probe request is let through; success closes the breaker,
    failure re-opens it (and restarts the recovery clock).

Failures are recorded by the distributed layer on
:class:`~repro.errors.SiteUnavailable` and prepare timeouts — the
infrastructure signals of :data:`repro.errors.INFRASTRUCTURE_REASONS` — not on
contention aborts, which say nothing about site health.

Time is virtual and injected (``clock`` returns "now"), so breakers are
deterministic under the simulator and compose with
:class:`~repro.faults.FaultyCourier` partitions.  State changes emit
``qos.breaker`` trace events.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.tracer import NULL_TRACER

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Three-state breaker driven by an injected virtual clock."""

    def __init__(
        self,
        name: str = "",
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
        clock: Callable[[], float] | None = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        #: Requests refused while open (the fast-fail count).
        self.fast_fails = 0
        #: Times the breaker tripped open.
        self.trips = 0
        self.tracer = NULL_TRACER

    @property
    def state(self) -> str:
        return self._state

    def allow(self) -> bool:
        """Whether a request may proceed; may transition open -> half-open."""
        if self._state == CLOSED:
            return True
        now = self._clock()
        if self._state == OPEN:
            if now - self._opened_at >= self.recovery_time:
                self._transition(HALF_OPEN, now)
                self._probe_in_flight = True
                return True
            self.fast_fails += 1
            return False
        # half-open: one probe at a time.
        if self._probe_in_flight:
            self.fast_fails += 1
            return False
        self._probe_in_flight = True
        return True

    def record_success(self) -> None:
        self._failures = 0
        if self._state != CLOSED:
            self._probe_in_flight = False
            self._transition(CLOSED, self._clock())

    def record_failure(self) -> None:
        now = self._clock()
        if self._state == HALF_OPEN:
            self._probe_in_flight = False
            self._opened_at = now
            self.trips += 1
            self._transition(OPEN, now)
            return
        if self._state == OPEN:
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._opened_at = now
            self.trips += 1
            self._transition(OPEN, now)

    def _transition(self, state: str, now: float) -> None:
        previous, self._state = self._state, state
        if state is not previous and self.tracer.enabled:
            self.tracer.emit(
                "qos.breaker",
                site=self.name,
                state=state,
                previous=previous,
                now=now,
                failures=self._failures,
            )


class BreakerBoard:
    """One :class:`CircuitBreaker` per remote site, created on demand."""

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
        clock: Callable[[], float] | None = None,
    ):
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self._clock = clock
        self._breakers: dict[object, CircuitBreaker] = {}
        self._tracer = NULL_TRACER

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, value) -> None:
        # attach_tracer() assigns this attribute; fan the tracer out to the
        # per-site breakers, including ones created before the attach.
        self._tracer = value
        for breaker in self._breakers.values():
            breaker.tracer = value

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Late-bind the virtual clock (e.g. once a simulator exists)."""
        self._clock = clock
        for breaker in self._breakers.values():
            breaker._clock = clock

    def for_site(self, site_id: object) -> CircuitBreaker:
        breaker = self._breakers.get(site_id)
        if breaker is None:
            breaker = CircuitBreaker(
                name=str(site_id),
                failure_threshold=self.failure_threshold,
                recovery_time=self.recovery_time,
                clock=self._clock,
            )
            breaker.tracer = self.tracer
            self._breakers[site_id] = breaker
        return breaker

    def allow(self, site_id: object) -> bool:
        return self.for_site(site_id).allow()

    def record_success(self, site_id: object) -> None:
        self.for_site(site_id).record_success()

    def record_failure(self, site_id: object) -> None:
        self.for_site(site_id).record_failure()

    def states(self) -> dict[object, str]:
        return {site: b.state for site, b in self._breakers.items()}
