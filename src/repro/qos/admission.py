"""Token-based admission control with load shedding.

The controller guards entry of *read-write* transactions into a scheduler:
``capacity`` tokens are in-flight slots, and an arrival beyond capacity is
shed with a typed :class:`~repro.errors.Overloaded` — never silently
dropped.  Read-only transactions must never pass through admission at all
(the paper's guarantee: they cannot block or be blocked, so there is
nothing to shed).

It is one synchronous gate, :meth:`AdmissionController.admit`, called by
``Scheduler.begin``: begin cannot park the caller, so an over-capacity
arrival is shed at once and the client's retry loop (with backoff and
budget) provides the backpressure.

Every decision emits a ``qos.admit`` / ``qos.shed`` trace event through
:mod:`repro.obs` when a tracer is attached.
"""

from __future__ import annotations

from repro.errors import Overloaded
from repro.obs.tracer import NULL_TRACER


class AdmissionController:
    """Bounded-entry gate: ``capacity`` tokens.

    Args:
        capacity: concurrent in-flight slots (tokens).
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._in_flight = 0
        #: Requests granted a token.
        self.admitted = 0
        #: Requests shed with Overloaded.
        self.shed = 0
        #: Structured-event tracer; NULL_TRACER unless attach_tracer() wired one.
        self.tracer = NULL_TRACER

    def admit(self) -> None:
        """Take a token or raise :class:`Overloaded`."""
        if self._in_flight < self.capacity:
            self._in_flight += 1
            self.admitted += 1
            if self.tracer.enabled:
                self.tracer.emit("qos.admit", self._in_flight)
            return
        self.shed += 1
        if self.tracer.enabled:
            self.tracer.emit("qos.shed", self._in_flight)
        raise Overloaded()

    def release(self) -> None:
        """Return a token."""
        if self._in_flight <= 0:
            raise ValueError("release() without a matching admit")
        self._in_flight -= 1
