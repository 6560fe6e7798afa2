"""Seed-deterministic fault schedules.

A :class:`FaultSpec` declares *how often* each fault kind fires; a
:class:`FaultSchedule` binds a spec to a master seed and answers, per
message, *which* faults fire — using one independent RNG stream per channel
(:class:`~repro.sim.random_streams.RandomStreams`), so adding traffic on one
channel never perturbs the fault draws of another and a drill replays
bit-for-bit from its seed.

Fault taxonomy (``docs/faults.md``):

* **drop** — the message is lost in flight; the sender's link layer
  retransmits with exponential backoff and jitter (:class:`RetryPolicy`).
* **duplicate** — the message is delivered twice (retransmission raced the
  original ack); protocols must be idempotent.
* **delay spike** — the message takes :data:`SPIKE_FACTOR` times 0.5..1.5
  extra latency units, modeling a stalled path or a bufferbloated queue.
* **partition** — a channel is unreachable during declared
  :class:`PartitionWindow` s of virtual time; messages dispatched during a
  window are deferred until it heals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.sim.random_streams import RandomStreams


@dataclass(frozen=True)
class PartitionWindow:
    """A channel is unreachable during ``[start, end)`` of virtual time.

    ``channel="*"`` partitions every channel (a full network outage).
    """

    channel: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty partition window [{self.start}, {self.end})")

    def covers(self, channel: str, now: float) -> bool:
        return (self.channel in ("*", channel)) and self.start <= now < self.end


#: A delay spike adds this many latency units, times 0.5..1.5.
SPIKE_FACTOR = 10.0


@dataclass(frozen=True)
class FaultSpec:
    """Per-message fault probabilities plus partition windows.

    All probabilities are per dispatched message (and per retransmission
    attempt for ``drop``).
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay_spike: float = 0.0
    partitions: tuple[PartitionWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay_spike"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability {p} outside [0, 1]")

    @property
    def any_faults(self) -> bool:
        return bool(
            self.drop or self.duplicate or self.delay_spike or self.partitions
        )


#: A moderate default mix used by ``python -m repro drill``.
DEFAULT_SPEC = FaultSpec(drop=0.08, duplicate=0.05, delay_spike=0.05)


@dataclass
class FaultDecision:
    """What the schedule decided for one dispatched message."""

    drop: bool = False
    duplicate: bool = False
    extra_delay: float = 0.0


@dataclass
class FaultCounts:
    """Tally of injected faults, for drill reports."""

    drops: int = 0
    duplicates: int = 0
    delay_spikes: int = 0
    partition_deferrals: int = 0
    retries_exhausted: int = 0
    crashes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "drops": self.drops,
            "duplicates": self.duplicates,
            "delay_spikes": self.delay_spikes,
            "partition_deferrals": self.partition_deferrals,
            "retries_exhausted": self.retries_exhausted,
            "crashes": self.crashes,
        }


class FaultSchedule:
    """Deterministic per-channel fault decisions under one master seed.

    One :class:`FaultSpec` governs every channel; decisions are drawn from
    streams named ``fault:<channel>`` — replaying the same traffic under
    the same seed reproduces the same faults.
    """

    def __init__(self, spec: FaultSpec | None = None, seed: int = 0):
        self.spec = spec if spec is not None else FaultSpec()
        self.seed = seed
        self._streams = RandomStreams(seed)
        self.counts = FaultCounts()

    def rng(self, channel: str) -> random.Random:
        return self._streams.stream(f"fault:{channel}")

    def partitioned_until(self, channel: str, now: float) -> float | None:
        """End of the partition window covering ``(channel, now)``, if any."""
        end: float | None = None
        for window in self.spec.partitions:
            if window.covers(channel, now):
                end = window.end if end is None else max(end, window.end)
        return end

    def decide(self, channel: str, retransmission: bool = False) -> FaultDecision:
        """Draw the fault outcome for one message (or retransmission).

        Retransmissions re-draw only the drop fault: a retried frame can be
        lost again, but duplication/spikes of the original are not re-rolled
        (the retransmission *is* the duplicate-like event).
        """
        spec = self.spec
        decision = FaultDecision()
        if not spec.any_faults:
            return decision
        rng = self.rng(channel)
        if spec.drop and rng.random() < spec.drop:
            decision.drop = True
            self.counts.drops += 1
        if retransmission:
            return decision
        if spec.duplicate and rng.random() < spec.duplicate:
            decision.duplicate = True
            self.counts.duplicates += 1
        if spec.delay_spike and rng.random() < spec.delay_spike:
            decision.extra_delay = SPIKE_FACTOR * (0.5 + rng.random())
            self.counts.delay_spikes += 1
        return decision
