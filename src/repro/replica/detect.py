"""Failure detection and automatic fail-over: heartbeats, suspicion, votes.

Everything here rides the ordinary :class:`~repro.distributed.courier.
Courier` dispatch surface on named channels — ``hb.<rid>`` for primary →
replica heartbeat frames, ``hback.<rid>`` for the replies, ``vote.<rid>``
for a replica's deposal votes — so the :mod:`repro.faults` machinery
(drop, duplicate, delay, partition) applies to the control plane exactly
as it does to replication traffic, with zero detection-specific fault
code.  All timing comes from the courier's simulator clock, so a seeded
run replays byte-identically.

The pieces:

* :class:`FailureDetector` — per-replica suspicion of the primary, a
  timeout/phi-style score ``(now - last_beat) / suspect_after``; 1.0 is
  the suspect threshold.  Heartbeats from a stale epoch never refresh it.
* :class:`ClusterSupervisor` — drives the heartbeat rounds, collects
  suspicion votes, and calls :meth:`~repro.replica.cluster.ReplicaCluster.
  fail_over` **automatically** once a majority of the *full* cluster has
  voted.  Requiring a full-cluster majority of votes (not of survivors)
  is what makes the election safe against the primary's lease: lease
  validity needs fresh contact from ``majority - 1`` replicas, deposal
  needs ``majority`` suspecting replicas, and the two sets cannot coexist
  — so by the time a successor can win, the old primary's lease has
  lapsed and it is fenced (see :mod:`repro.replica.quorum`).
* heartbeat *acks* double as lease renewals: each valid-epoch ``hback``
  feeds :meth:`QuorumGate.note_contact`, so an idle-but-healthy primary
  keeps its write authority without commit traffic.

The supervisor also re-arms itself across promotions (detectors reset
with a fresh grace period, votes clear, the new primary's lease arms), so
one supervisor heals the cluster any number of times within its horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError


@dataclass(frozen=True)
class HeartbeatConfig:
    """Timing knobs for detection and fencing.

    The defaults respect the safety ordering ``lease_ttl <=
    suspect_after``: the deposed primary's lease lapses no later than the
    moment enough replicas suspect it to elect a successor.
    """

    #: Heartbeat round period (also the vote re-broadcast period).
    interval: float = 2.0
    #: Silence after which a replica suspects the primary (suspicion 1.0).
    suspect_after: float = 8.0
    #: Primary lease TTL; must not exceed ``suspect_after``.
    lease_ttl: float = 6.0
    #: Per-commit quorum-ack timeout handed to the gate.
    commit_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.lease_ttl > self.suspect_after:
            raise ValueError(
                f"lease_ttl {self.lease_ttl} exceeds suspect_after "
                f"{self.suspect_after}: a deposed primary could still hold a "
                "valid lease after its successor is electable"
            )


class FailureDetector:
    """One replica's timeout/phi-style suspicion of the primary."""

    def __init__(self, suspect_after: float, now: float = 0.0):
        self.suspect_after = suspect_after
        #: Last valid-epoch heartbeat arrival (start time counts as one:
        #: the grace period before the first round completes).
        self.last_beat = now
        self.beats = 0

    def on_heartbeat(self, now: float) -> None:
        self.beats += 1
        if now > self.last_beat:
            self.last_beat = now

    def suspicion(self, now: float) -> float:
        """0.0 = fresh contact, 1.0 = suspect threshold, grows unboundedly."""
        if self.suspect_after <= 0:
            return float("inf")
        return max(now - self.last_beat, 0.0) / self.suspect_after

    def suspects(self, now: float) -> bool:
        return self.suspicion(now) >= 1.0


class ClusterSupervisor:
    """Heartbeat rounds plus a quorum-vote coordinator for automatic fail-over.

    Needs a simulated courier (the clock).  ``until`` bounds the tick loop
    so an unbounded ``sim.run()`` still terminates.  By default a deposed
    primary is *not* crashed (``crash_old=False``): in the partition
    scenario nobody can reach it, and proving it harmless anyway is the
    point of the fencing design.
    """

    def __init__(
        self,
        cluster,
        config: HeartbeatConfig | None = None,
        *,
        until: float | None = None,
        crash_old: bool = False,
    ):
        self.cluster = cluster
        self.config = config if config is not None else HeartbeatConfig()
        self.until = until
        self.crash_old = crash_old
        self.tracer = cluster.tracer  # a part of the cluster from here on
        self.counters = cluster.counters
        self.active = False
        self.auto_promotions = 0
        #: Replica ids that voted to depose the current epoch's primary.
        self.votes: set[int] = set()
        self._detectors: dict[int, FailureDetector] = {}
        self._suspected: set[int] = set()
        self._hook_installed = False
        if cluster.courier.sim is None:
            raise ProtocolError(
                "ClusterSupervisor needs a simulated courier (it is the clock)"
            )
        cluster.supervisor = self

    # -- clock -------------------------------------------------------------------

    def _now(self) -> float:
        return self.cluster.courier.sim.now

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Arm the lease, reset the detectors, and begin heartbeat rounds."""
        self.active = True
        self._reset_round()
        self.cluster.arm_lease(self.config)
        if not self._hook_installed:
            self.cluster.on_promote.append(self._after_promotion)
            self._hook_installed = True
        self._tick()

    def _reset_round(self) -> None:
        now = self._now()
        self.votes.clear()
        self._suspected.clear()
        self._detectors = {
            rid: FailureDetector(self.config.suspect_after, now=now)
            for rid in self.cluster.replicas
        }

    def _after_promotion(self, promoted) -> None:
        """Cluster hook: a new primary exists (ours or hand-promoted)."""
        if not self.active:
            return
        self._reset_round()
        self.cluster.arm_lease(self.config)

    # -- the heartbeat / vote round --------------------------------------------------

    def vote_quorum(self) -> int:
        """Votes needed to depose: a majority of the *full* cluster."""
        return (1 + len(self.cluster.replicas)) // 2 + 1

    def _tick(self) -> None:
        if not self.active:
            return
        now = self._now()
        if self.until is not None and now >= self.until:
            self.active = False
            return
        cluster = self.cluster
        courier = cluster.courier
        epoch = cluster.epoch

        # Primary side: one heartbeat frame per replica, through the same
        # faultable channels as everything else.
        for rid in sorted(cluster.replicas):
            replica = cluster.replicas[rid]

            def beat(rid=rid, replica=replica, epoch=epoch) -> None:
                if epoch < replica.epoch:
                    return  # a deposed primary's frame: not a sign of life
                detector = self._detectors.get(rid)
                if detector is not None:
                    detector.on_heartbeat(self._now())
                ack_epoch = replica.epoch

                def hback(rid=rid, ack_epoch=ack_epoch) -> None:
                    self.on_heartbeat_ack(rid, ack_epoch)

                courier.dispatch(hback, channel=f"hback.{rid}")

            courier.dispatch(beat, channel=f"hb.{rid}")

        # Replica side: evaluate suspicion and (re-)cast deposal votes.
        # Re-casting every round makes the vote channel loss-tolerant.
        for rid in sorted(self._detectors):
            if rid not in cluster.replicas:
                continue
            detector = self._detectors[rid]
            if detector.suspects(now):
                if rid not in self._suspected:
                    self._suspected.add(rid)
                    self.counters.bump("detect.suspicions")
                    if self.tracer.enabled:
                        self.tracer.emit(
                            "detect.suspect",
                            rid,
                            epoch,
                            round(detector.suspicion(now), 3),
                        )

                def vote(rid=rid, vote_epoch=cluster.replicas[rid].epoch) -> None:
                    self.on_vote(rid, vote_epoch)

                courier.dispatch(vote, channel=f"vote.{rid}")

        courier.call_later(self.config.interval, self._tick)

    # -- message handlers -----------------------------------------------------------

    def on_heartbeat_ack(self, rid: int, epoch: int) -> None:
        """A replica's reply: proof of quorum contact for the lease."""
        if not self.active or epoch != self.cluster.epoch:
            return
        self.counters.bump("detect.hb_acks")
        if self.cluster.gate is not None:
            self.cluster.gate.note_contact(rid)

    def on_vote(self, rid: int, epoch: int) -> None:
        """A replica's deposal vote against the primary of ``epoch``."""
        if not self.active or epoch != self.cluster.epoch:
            return
        if rid not in self.cluster.replicas:
            return
        if rid not in self.votes:
            self.votes.add(rid)
            self.counters.bump("detect.votes")
            if self.tracer.enabled:
                self.tracer.emit(
                    "detect.vote",
                    rid,
                    epoch,
                    len(self.votes),
                    self.vote_quorum(),
                )
        if len(self.votes) >= self.vote_quorum():
            self._promote()

    # -- promotion ---------------------------------------------------------------------

    def _promote(self) -> None:
        cluster = self.cluster
        votes = sorted(self.votes)
        epoch = cluster.epoch
        try:
            promoted = cluster.fail_over(crash_old=self.crash_old)
        except ProtocolError:
            # No promotable replica (e.g. the last one just left) — drop
            # the votes and keep watching.
            self.votes.clear()
            return
        self.auto_promotions += 1
        self.counters.bump("detect.auto_failovers")
        if self.tracer.enabled:
            self.tracer.emit(
                "detect.failover",
                epoch,
                cluster.epoch,
                promoted.replica_id,
                votes,
            )
        # _after_promotion (the cluster hook) already reset the round.


__all__ = [
    "ClusterSupervisor",
    "FailureDetector",
    "HeartbeatConfig",
]
