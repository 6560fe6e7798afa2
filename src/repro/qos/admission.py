"""Token-based admission control with bounded wait queues and load shedding.

The controller guards entry of *read-write* transactions into a scheduler:
``capacity`` tokens are in-flight slots, and arrivals beyond capacity
either wait in a bounded queue or are shed with a typed
:class:`~repro.errors.Overloaded` — never silently dropped.  Read-only
transactions must never pass through admission at all (the paper's
guarantee: they cannot block or be blocked, so there is nothing to shed).

Two entry points serve the two calling styles in this codebase:

* :meth:`AdmissionController.admit` — synchronous, for
  ``Scheduler.begin``: take a token or raise :class:`Overloaded`
  immediately (begin cannot park, so the queue is not used);
* :meth:`AdmissionController.acquire` — returns an
  :class:`~repro.core.futures.OpFuture` that resolves when a token frees
  up, for simulation drivers that *can* park.  The wait queue is bounded
  by ``queue_limit``; overflow sheds per the configured policy.

Shedding policies (``policy=``):

``fifo``
    waiters are served oldest-first; when the queue is full the **new
    arrival** is shed (classic bounded FIFO).
``lifo-shed``
    waiters are served newest-first and overflow sheds the **oldest**
    waiter — the adaptive-LIFO pattern: under a burst the freshest
    requests (whose clients are still listening) are served while stale
    ones are dropped.
``priority``
    waiters are served highest-priority-first (ties oldest-first);
    overflow sheds the **lowest-priority** waiter, which may be the new
    arrival itself.

Every decision emits a ``qos.admit`` / ``qos.shed`` / ``qos.queue`` trace
event through :mod:`repro.obs` when a tracer is attached.
"""

from __future__ import annotations

from repro.core.futures import OpFuture
from repro.errors import Overloaded
from repro.obs.tracer import NULL_TRACER

POLICIES = ("fifo", "lifo-shed", "priority")


class _Waiter:
    __slots__ = ("future", "priority", "seq")

    def __init__(self, future: OpFuture, priority: float, seq: int):
        self.future = future
        self.priority = priority
        self.seq = seq


class AdmissionController:
    """Bounded-entry gate: ``capacity`` tokens plus a bounded wait queue.

    Args:
        capacity: concurrent in-flight slots (tokens).
        queue_limit: max waiters parked by :meth:`acquire`; 0 disables
            queueing (every over-capacity arrival is shed).
        policy: ``fifo`` | ``lifo-shed`` | ``priority`` (see module docs).
    """

    def __init__(
        self,
        capacity: int = 8,
        queue_limit: int = 16,
        policy: str = "fifo",
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if policy not in POLICIES:
            raise ValueError(f"unknown admission policy {policy!r}; choose from {POLICIES}")
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.policy = policy
        self._in_flight = 0
        self._queue: list[_Waiter] = []
        self._seq = 0
        #: Requests granted a token (immediately or after waiting).
        self.admitted = 0
        #: Requests shed with Overloaded.
        self.shed = 0
        #: Structured-event tracer; NULL_TRACER unless attach_tracer() wired one.
        self.tracer = NULL_TRACER

    # -- introspection -----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- synchronous path (Scheduler.begin) --------------------------------------

    def admit(self) -> None:
        """Take a token or raise :class:`Overloaded` — no queueing.

        The synchronous entry used by ``Scheduler.begin``: begin cannot
        park the caller, so over-capacity arrivals are shed immediately
        and the client's retry loop (with backoff and budget) provides
        the backpressure.
        """
        if self._in_flight < self.capacity:
            self._take()
            return
        self._shed_event(queue_depth=len(self._queue))
        raise Overloaded(policy=self.policy, queue_depth=len(self._queue))

    def try_admit(self) -> bool:
        """Non-raising :meth:`admit`; True when a token was taken."""
        if self._in_flight < self.capacity:
            self._take()
            return True
        self._shed_event(queue_depth=len(self._queue))
        return False

    # -- future-based path (simulation drivers) ----------------------------------

    def acquire(self, priority: float = 0.0) -> OpFuture:
        """Request a token; the future resolves when one is granted.

        Resolves immediately when a token is free.  Otherwise the request
        joins the bounded wait queue; if the queue is full, one waiter is
        shed per the policy — its future fails with :class:`Overloaded`
        (that waiter may be this very request).
        """
        future = OpFuture(label=("admission({})", self.policy))
        if self._in_flight < self.capacity and not self._queue:
            self._take()
            future.resolve(None)
            return future
        self._seq += 1
        waiter = _Waiter(future, priority, self._seq)
        self._queue.append(waiter)
        if len(self._queue) > self.queue_limit:
            victim = self._overflow_victim()
            self._queue.remove(victim)
            self._shed_event(queue_depth=len(self._queue))
            victim.future.fail(
                Overloaded(policy=self.policy, queue_depth=len(self._queue))
            )
        if not future.done and self.tracer.enabled:
            self.tracer.emit(
                "qos.queue",
                policy=self.policy,
                depth=len(self._queue),
                priority=priority,
            )
        return future

    def release(self) -> None:
        """Return a token; grant the next queued waiter per the policy."""
        if self._in_flight <= 0:
            raise ValueError("release() without a matching admit/acquire")
        self._in_flight -= 1
        if self._queue and self._in_flight < self.capacity:
            winner = self._next_waiter()
            self._queue.remove(winner)
            self._take(waited=True)
            winner.future.resolve(None)

    # -- policy internals --------------------------------------------------------

    def _overflow_victim(self) -> _Waiter:
        if self.policy == "fifo":
            return self._queue[-1]  # the new arrival
        if self.policy == "lifo-shed":
            return self._queue[0]  # the oldest waiter
        # priority: lowest priority loses; ties break against the newest.
        return min(self._queue, key=lambda w: (w.priority, -w.seq))

    def _next_waiter(self) -> _Waiter:
        if self.policy == "fifo":
            return self._queue[0]
        if self.policy == "lifo-shed":
            return self._queue[-1]
        # priority: highest priority wins; ties break oldest-first.
        return max(self._queue, key=lambda w: (w.priority, -w.seq))

    def _take(self, waited: bool = False) -> None:
        self._in_flight += 1
        self.admitted += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "qos.admit",
                policy=self.policy,
                in_flight=self._in_flight,
                waited=waited,
            )

    def _shed_event(self, queue_depth: int) -> None:
        self.shed += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "qos.shed",
                policy=self.policy,
                in_flight=self._in_flight,
                queue_depth=queue_depth,
            )
