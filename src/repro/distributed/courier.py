"""Message delivery for the distributed layer.

Three delivery modes cover every use — the **mode matrix**:

================  ==========================  ===========================
mode              construction                latency handling
================  ==========================  ===========================
**immediate**     ``Courier()``               ignored — deliveries run
                                              synchronously at dispatch
                                              (unit tests of the happy
                                              path).
**manual**        ``Courier(manual=True)``    shapes *delivery order*:
                                              each message gets a virtual
                                              arrival time (send tick +
                                              drawn latency) and ``pump``
                                              delivers in arrival order.
                                              With zero latency this is
                                              exactly FIFO; with a seeded
                                              jitter callable it is a
                                              deterministic reordering.
**simulated**     ``Courier(sim=...)``        real virtual time: each
                                              delivery is scheduled on the
                                              :class:`Simulator` after the
                                              drawn latency.
================  ==========================  ===========================

Latencies are resolved at construction: a number becomes the float each
message looks up, a callable stays a source drawn once per message.

Messages carry a *channel* label (default ``"default"``).  Manual pumping
can target one channel, modeling independent network paths whose relative
ordering is unconstrained — the freedom distributed anomalies need.

**Span-context envelopes.**  When a tracer is attached, ``dispatch`` seals
the sender's ambient span context into the message (see
:func:`repro.obs.spans.bind_envelope`): a ``msg`` span covers the courier
hop, and the handler runs under that span's context at the receiving site,
so cross-site work stays on one causal tree.  The seal happens *once*, at
dispatch — retransmissions and duplicates re-deliver the sealed thunk, so
a :class:`~repro.faults.FaultyCourier` retry cannot detach the context.
Mode-specific routing lives in :meth:`Courier._route`, which subclasses
override; ``dispatch`` stays the single sealing point (and schedules a
simulated delivery in place unless a subclass overrides ``_route``).

:class:`~repro.faults.FaultyCourier` subclasses this to inject drops,
duplicates, delay spikes and partitions from a seeded schedule.  It runs
in the simulated mode only: every fault plays out in virtual time.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable

from repro.obs.spans import bind_envelope
from repro.obs.tracer import NULL_TRACER
from repro.sim.engine import Simulator

LatencySource = Callable[[], float] | float


class _Message:
    __slots__ = ("arrival", "seq", "channel", "fn")

    def __init__(self, arrival: float, seq: int, channel: str, fn: Callable[[], None]):
        self.arrival = arrival
        self.seq = seq
        self.channel = channel
        self.fn = fn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<msg #{self.seq} @{self.arrival} {self.channel}>"


class Courier:
    """Delivers thunks according to the configured mode (see module docs)."""

    def __init__(
        self,
        sim: Simulator | None = None,
        latency: LatencySource = 0.0,
        manual: bool = False,
    ):
        if sim is not None and manual:
            raise ValueError("choose either simulated or manual delivery")
        self._sim = sim
        self._latency = latency if callable(latency) else float(latency)
        self._manual = manual
        #: The simulator ``dispatch`` schedules on in place; None if a subclass re-routes.
        self._direct = sim if sim is not None and type(self)._route is Courier._route else None
        self._queue: deque[_Message] = deque()
        self._sends = 0  # manual-mode send tick (one per dispatch)
        #: Messages delivered (a cost proxy for the distributed protocols).
        self.delivered = 0
        #: Structured-event tracer; NULL_TRACER unless attach_tracer() (or a
        #: fault layer) wired one.  The plain courier emits nothing itself.
        self.tracer = NULL_TRACER

    @property
    def sim(self) -> Simulator | None:
        """The simulator driving simulated deliveries, if any."""
        return self._sim

    def _draw_latency(self) -> float:
        source = self._latency
        return float(source()) if callable(source) else source

    def dispatch(self, fn: Callable[[], None], channel: str = "default") -> None:
        """Deliver ``fn`` per the configured mode.

        With a tracer attached and a sender context active, that context is
        sealed into the message envelope here — exactly once, before any
        routing — so every later delivery (including fault-layer
        retransmissions and duplicates) runs under the sending context.
        Context-free traffic (nothing to propagate) is routed unsealed, so
        it never produces orphan ``msg`` roots.
        """
        if self.tracer.enabled and self.tracer.active_span is not None:
            fn = bind_envelope(self.tracer, fn, channel)
        sim = self._direct
        if sim is None:
            return self._route(fn, channel)
        latency = self._latency
        latency = float(latency()) if callable(latency) else latency
        sim.call_at(sim.now + latency, partial(self._deliver, fn))

    def _route(self, fn: Callable[[], None], channel: str) -> None:
        """Manual or immediate delivery; the fault-injecting courier overrides it."""
        if self._manual:
            self._enqueue(fn, channel, self._draw_latency())
        else:
            self._deliver(fn)

    def call_later(self, delay: float, fn: Callable[[], None]) -> bool:
        """Schedule ``fn`` after ``delay`` time units, when a clock exists.

        Only the simulated mode has a clock; returns True when the callback
        was scheduled, False otherwise (callers treat a timeout they cannot
        schedule as infinite).
        """
        if self._sim is None:
            return False
        self._sim.call_in(delay, fn)
        return True

    def _deliver(self, fn: Callable[[], None]) -> None:
        """One delivery: counted, then run."""
        self.delivered += 1
        fn()

    # -- manual mode ------------------------------------------------------------

    def _enqueue(self, fn: Callable[[], None], channel: str, latency: float) -> None:
        """Insert by virtual arrival time (send tick + latency), stably.

        Each dispatch advances the send tick by one, so with zero latency
        arrival order equals dispatch order (FIFO); a jitter source
        deterministically interleaves slow messages behind later fast ones
        — the manual-mode analogue of simulated latency.
        """
        self._sends += 1
        message = _Message(self._sends + max(latency, 0.0), self._sends, channel, fn)
        if not self._queue or self._queue[-1].arrival <= message.arrival:
            self._queue.append(message)
            return
        position = len(self._queue)
        while position > 0 and self._queue[position - 1].arrival > message.arrival:
            position -= 1
        self._queue.insert(position, message)

    def pending(self, channel: str | None = None) -> int:
        if channel is None:
            return len(self._queue)
        return sum(1 for m in self._queue if m.channel == channel)

    def defer(self, count: int = 1) -> None:
        """Move the first ``count`` queued messages to the back of the queue.

        Models out-of-order delivery across independent channels — the
        reordering freedom distributed anomalies need.  (Deferral is an
        explicit test directive: it overrides arrival order.)
        """
        for _ in range(min(count, len(self._queue))):
            self._queue.append(self._queue.popleft())

    def pump(self, count: int | None = None, channel: str | None = None) -> int:
        """Deliver up to ``count`` queued messages (all when None).

        When ``channel`` is given only that channel's messages are
        delivered, preserving their arrival order; others stay queued.
        Delivering a message may enqueue more; those run too when ``count``
        is None.
        """
        delivered = 0
        scanned: deque[_Message] = deque()
        while self._queue and (count is None or delivered < count):
            message = self._queue.popleft()
            if channel is not None and message.channel != channel:
                scanned.append(message)
                continue
            self.delivered += 1
            message.fn()
            delivered += 1
        # Put back unmatched messages at the front, preserving order.
        while scanned:
            self._queue.appendleft(scanned.pop())
        return delivered
