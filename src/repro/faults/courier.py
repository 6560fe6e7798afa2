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

The courier runs on a simulator, so faults play out in virtual time: a
dropped message is rescheduled after the backoff delay, a partitioned
message is deferred to the end of its window, and explicit
:meth:`~FaultyCourier.partition` / :meth:`~FaultyCourier.heal` calls park
and release whole channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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
        sim: Simulator,
        schedule: FaultSchedule | None = None,
        retry: RetryPolicy | None = None,
        latency: LatencySource = 0.0,
    ):
        super().__init__(sim=sim, latency=latency)
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.retry = retry if retry is not None else RetryPolicy()
        #: Channels parked by an explicit partition() call.
        self._held_channels: set[str] = set()
        self._parked: list[tuple[str, Callable[[], None]]] = []

    # -- explicit partitions -----------------------------------------------------

    def partition(self, channel: str) -> None:
        """Hold every future (and parked) message on ``channel``."""
        self._held_channels.add(channel)
        if self.tracer.enabled:
            self.tracer.emit("fault.partition.start", channel)

    def heal(self, channel: str) -> None:
        """Release ``channel``: parked messages re-enter normal dispatch."""
        self._held_channels.discard(channel)
        released, kept = [], []
        for ch, fn in self._parked:
            (released if ch == channel else kept).append((ch, fn))
        self._parked = kept
        if self.tracer.enabled:
            self.tracer.emit("fault.partition.heal", channel, len(released))
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
                self.tracer.emit("fault.partition.hold", channel)
            self._parked.append((channel, fn))
            return
        self._dispatch_sim(fn, channel, attempt=0)

    def _dispatch_sim(self, fn: Callable[[], None], channel: str, attempt: int) -> None:
        now = self._sim.now
        heal_at = self.schedule.partitioned_until(channel, now)
        if heal_at is not None:
            self.schedule.counts.partition_deferrals += 1
            if self.tracer.enabled:
                self.tracer.emit("fault.partition.hold", channel, until=heal_at)
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
                    self.tracer.emit("fault.retry.exhausted", channel, attempt + 1)
            else:
                backoff = self.retry.delay(attempt, self.schedule.rng(channel))
                if self.tracer.enabled:
                    self.tracer.emit(
                        "fault.drop",
                        channel,
                        attempt=attempt,
                        retry_in=backoff,
                    )
                self._sim.call_in(
                    backoff, lambda: self._dispatch_sim(fn, channel, attempt + 1)
                )
                return
        latency = self._draw_latency() + decision.extra_delay
        if decision.extra_delay and self.tracer.enabled:
            self.tracer.emit("fault.delay", channel, decision.extra_delay)
        self._sim.call_in(latency, partial(self._deliver, fn))
        if decision.duplicate:
            if self.tracer.enabled:
                self.tracer.emit("fault.duplicate", channel)
            echo = self._draw_latency() + self.retry.base
            self._sim.call_in(latency + echo, partial(self._deliver, fn))
