"""A :class:`~repro.distributed.courier.Courier` that injects faults.

``FaultyCourier`` sits exactly where the real network sits: every
``dispatch`` consults a seeded :class:`~repro.faults.schedule.FaultSchedule`
and may drop, duplicate, delay, or defer (partition) the message.  Drops are
not silent black holes — the link layer retransmits under a
:class:`RetryPolicy` (exponential backoff with deterministic jitter), which
is what keeps the distributed protocols *live* under loss while still
exposing every reordering the loss creates.  After ``max_attempts`` the
retransmission is forced through (and counted as exhausted) so a drill can
never wedge on an unlucky stream; protocols still see arbitrarily late,
duplicated, and reordered traffic.

Every injected fault is emitted as a ``fault.*`` trace event on the
courier's tracer, so ``python -m repro trace`` can reconstruct the fault
timeline of a drill from its JSONL trace alone.

Mode behavior (see the base class's mode matrix):

* **simulated** — faults play out in virtual time: a dropped message is
  rescheduled after the backoff delay; a partitioned message is deferred to
  the end of its window.
* **manual** — faults shape the pump order: a drop pushes the message's
  arrival time out by the backoff delay, a duplicate enqueues it twice, and
  explicit :meth:`partition` / :meth:`heal` calls park and release whole
  channels (time-window partitions need a clock, hence sim mode).
* **immediate** — drops retry synchronously (attempt counting still runs),
  duplicates call the thunk twice; useful for unit-testing idempotence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.distributed.courier import Courier, LatencySource
from repro.faults.schedule import FaultSchedule
from repro.qos.retry import BackoffPolicy
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class RetryPolicy(BackoffPolicy):
    """The retransmission policy: :class:`~repro.qos.retry.BackoffPolicy`
    delays, at most ``max_attempts`` sends.  With the courier's seeded RNG
    streams the whole retry trajectory replays from the master seed.
    """

    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")


class FaultyCourier(Courier):
    """Courier with seed-deterministic fault injection (see module docs)."""

    def __init__(
        self,
        schedule: FaultSchedule | None = None,
        retry: RetryPolicy | None = None,
        sim: Simulator | None = None,
        latency: LatencySource = 0.0,
        manual: bool = False,
        channel_latency=None,
    ):
        super().__init__(
            sim=sim, latency=latency, manual=manual, channel_latency=channel_latency
        )
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.retry = retry if retry is not None else RetryPolicy()
        #: Channels parked by an explicit partition() call (manual/immediate).
        self._held_channels: set[str] = set()
        self._parked: list[tuple[str, Callable[[], None]]] = []

    # -- explicit partitions (manual / immediate modes) -------------------------

    def partition(self, channel: str) -> None:
        """Hold every future (and parked) message on ``channel``."""
        self._held_channels.add(channel)
        if self.tracer.enabled:
            self.tracer.emit("fault.partition.start", channel=channel)

    def heal(self, channel: str) -> None:
        """Release ``channel``: parked messages re-enter normal dispatch."""
        self._held_channels.discard(channel)
        released, kept = [], []
        for ch, fn in self._parked:
            (released if ch == channel else kept).append((ch, fn))
        self._parked = kept
        if self.tracer.enabled:
            self.tracer.emit(
                "fault.partition.heal", channel=channel, released=len(released)
            )
        for ch, fn in released:
            # Parked thunks already carry their span-context envelope from
            # the original dispatch; re-route, don't re-seal.
            self._route(fn, ch)

    def parked(self, channel: str | None = None) -> int:
        if channel is None:
            return len(self._parked)
        return sum(1 for ch, _ in self._parked if ch == channel)

    # -- routing (dispatch in the base class seals span contexts first) ----------

    def _route(self, fn: Callable[[], None], channel: str) -> None:
        if channel in self._held_channels:
            self.schedule.counts.partition_deferrals += 1
            if self.tracer.enabled:
                self.tracer.emit("fault.partition.hold", channel=channel)
            self._parked.append((channel, fn))
            return
        if self._sim is not None:
            self._dispatch_sim(fn, channel, attempt=0)
        elif self._manual:
            self._dispatch_manual(fn, channel)
        else:
            self._dispatch_immediate(fn, channel)

    # -- simulated mode ---------------------------------------------------------

    def _dispatch_sim(self, fn: Callable[[], None], channel: str, attempt: int) -> None:
        assert self._sim is not None
        now = self._sim.now
        heal_at = self.schedule.partitioned_until(channel, now)
        if heal_at is not None:
            self.schedule.counts.partition_deferrals += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "fault.partition.hold", channel=channel, until=heal_at
                )
            # Re-enter dispatch just past the window; the message may then be
            # dropped/duplicated like any other (or hit a later window).
            self._sim.call_at(
                heal_at, lambda: self._dispatch_sim(fn, channel, attempt)
            )
            return
        decision = self.schedule.decide(channel, retransmission=attempt > 0)
        if decision.drop:
            if attempt + 1 >= self.retry.max_attempts:
                # Backstop against 100%-loss schedules: force the delivery
                # through after the final backoff so drills cannot wedge.
                self.schedule.counts.retries_exhausted += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        "fault.retry.exhausted", channel=channel, attempts=attempt + 1
                    )
            else:
                backoff = self.retry.delay(attempt, self.schedule.rng(channel))
                if self.tracer.enabled:
                    self.tracer.emit(
                        "fault.drop",
                        channel=channel,
                        attempt=attempt,
                        retry_in=backoff,
                    )
                self._sim.call_in(
                    backoff, lambda: self._dispatch_sim(fn, channel, attempt + 1)
                )
                return
        latency = self._draw_latency(channel) + decision.extra_delay
        if decision.extra_delay and self.tracer.enabled:
            self.tracer.emit(
                "fault.delay", channel=channel, extra=decision.extra_delay
            )
        self._sim.call_in(latency, self._wrap(fn))
        if decision.duplicate:
            if self.tracer.enabled:
                self.tracer.emit("fault.duplicate", channel=channel)
            echo = self._draw_latency(channel) + self.retry.base
            self._sim.call_in(latency + echo, self._wrap(fn))

    # -- manual mode -------------------------------------------------------------

    def _dispatch_manual(self, fn: Callable[[], None], channel: str) -> None:
        decision = self.schedule.decide(channel)
        extra = decision.extra_delay
        if decision.drop:
            # A manual-mode drop is its own retransmission: the message's
            # arrival slides out by the first backoff, re-ordering it behind
            # traffic sent later — the observable effect of loss + retry.
            extra += self.retry.delay(0, self.schedule.rng(channel))
            if self.tracer.enabled:
                self.tracer.emit("fault.drop", channel=channel, retry_in=extra)
        elif decision.extra_delay and self.tracer.enabled:
            self.tracer.emit("fault.delay", channel=channel, extra=extra)
        self._enqueue(fn, channel, self._draw_latency(channel) + extra)
        if decision.duplicate:
            if self.tracer.enabled:
                self.tracer.emit("fault.duplicate", channel=channel)
            self._enqueue(fn, channel, self._draw_latency(channel) + extra)

    # -- immediate mode ----------------------------------------------------------

    def _dispatch_immediate(self, fn: Callable[[], None], channel: str) -> None:
        attempt = 0
        while True:
            decision = self.schedule.decide(channel, retransmission=attempt > 0)
            if not decision.drop:
                break
            attempt += 1
            if attempt >= self.retry.max_attempts:
                self.schedule.counts.retries_exhausted += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        "fault.retry.exhausted", channel=channel, attempts=attempt
                    )
                break
            if self.tracer.enabled:
                self.tracer.emit("fault.drop", channel=channel, attempt=attempt - 1)
        self._wrap(fn)()
        if decision.duplicate:
            if self.tracer.enabled:
                self.tracer.emit("fault.duplicate", channel=channel)
            self._wrap(fn)()
