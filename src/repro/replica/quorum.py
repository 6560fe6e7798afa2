"""Quorum-acknowledged commits: majority durability before acknowledgement.

The asynchronous pipeline of :mod:`repro.replica.ship` acknowledges a
commit at the primary's local ``force()`` — durable-but-unshipped commits
die with the primary (RPO = replication lag).  This module adds the
``ReplicationMode.QUORUM`` pipeline closing that hole:

* the commit point is unchanged (``VCregister`` → COMMIT record →
  ``force()``), but everything the *session* can observe — the installed
  versions, ``vtnc`` advancing past the new ``tn``, lock release, and the
  commit future resolving — is deferred until the commit's log offset is
  acknowledged by a **majority** of the cluster (primary + replicas);
* acks are the ordinary shipping acks of :class:`~repro.replica.ship.
  LogShipper` — one ack can cover many queued commits at once (the group
  ack that amortizes the round trip), observed through the shipper's
  ``ack_watchers`` hook;
* the primary holds an :class:`EpochLease` renewed by those same quorum
  contacts (ship acks and heartbeat acks).  When the lease lapses the
  primary stops *entering* new commits — they abort cleanly, before the
  commit point, with retryable :class:`~repro.errors.QuorumUnavailable` —
  which is the fencing rule that makes a deposed primary harmless even if
  it never learns it was deposed.

Why this is RPO=0: a commit is acknowledged only once a majority of the
cluster holds its log offset durably.  Promotion (:meth:`~repro.replica.
cluster.ReplicaCluster.fail_over`) picks the replica with the largest
applied offset, and any majority intersects the ack set of every
acknowledged commit, so the promoted log always contains every
acknowledged commit.  Commits past the commit point whose quorum never
arrives are *indeterminate* (the distributed-commit classic): they are
completed locally — keeping the primary's in-memory state consistent with
its own durable log and releasing their locks — but their futures fail
with :class:`~repro.errors.QuorumUnavailable`, so they are never counted
as acknowledged and their loss at fail-over does not violate RPO=0.

Safety of the lease against split-brain: a lease stays valid only with
fresh contact from ``majority - 1`` replicas, and a new primary is elected
only by a majority of suspicion votes (:mod:`repro.replica.detect`).  Two
majorities always intersect, and the ack/heartbeat epoch checks make every
intersecting node count for exactly one side — so a deposed primary's
lease lapses before (or the moment) a successor can be elected, never
after.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from repro.core.futures import OpFuture, failed
from repro.core.interface import SchedulerCounters
from repro.core.transaction import Transaction
from repro.distributed.courier import Courier
from repro.errors import AbortReason, QuorumUnavailable
from repro.obs.tracer import NULL_TRACER
from repro.protocols.recoverable import RecoverableVC2PLScheduler
from repro.replica.ship import LogShipper


class ReplicationMode(enum.Enum):
    """How a read-write commit is acknowledged to the session.

    * ``ASYNC`` — at the primary's local ``force()``; fastest, loses the
      replication lag on fail-over (RPO = lag).
    * ``QUORUM`` — once a majority of the cluster holds the commit's log
      offset durably; RPO = 0 for acknowledged commits.
    """

    ASYNC = "async"
    QUORUM = "quorum"


class EpochLease:
    """The primary's write authority, renewed by quorum contact.

    Validity is a pure function of the contact history and the clock —
    no timers to fire, so checks are free and deterministic.  The lease
    is *armed* by the failure-detection layer (heartbeats renew it even
    when no commits flow); unarmed it always reads valid, which keeps
    the single-process configurations (unit tests, benches without a
    supervisor) out of the fencing business.
    """

    def __init__(self, epoch: int, ttl: float, clock: Callable[[], float]):
        self.epoch = epoch
        self.ttl = ttl
        self._clock = clock
        self.armed = False
        self.granted_at = clock()
        #: Last time each replica acked (ship or heartbeat) in this epoch.
        self.last_contact: dict[int, float] = {}

    def arm(self) -> None:
        """Start enforcing the TTL (grace restarts at the current time)."""
        self.armed = True
        self.granted_at = self._clock()

    def note_contact(self, rid: int) -> None:
        self.last_contact[rid] = self._clock()

    def fresh_contacts(self, now: float | None = None) -> int:
        now = self._clock() if now is None else now
        return sum(1 for t in self.last_contact.values() if now - t <= self.ttl)

    def valid(self, majority: int, now: float | None = None) -> bool:
        """Whether the primary may still *enter* read-write commits.

        The primary counts itself; a startup grace of one TTL covers the
        window before the first ack round completes.
        """
        if not self.armed:
            return True
        now = self._clock() if now is None else now
        if now - self.granted_at <= self.ttl:
            return True
        return 1 + self.fresh_contacts(now) >= majority


class _PendingCommit:
    """One commit past its commit point, waiting for the group ack."""

    __slots__ = ("offset", "txn_id", "on_quorum", "on_indeterminate", "on_deposed", "done")

    def __init__(
        self,
        offset: int,
        txn_id: int,
        on_quorum: Callable[[], None],
        on_indeterminate: Callable[[], None],
        on_deposed: Callable[[BaseException], None],
    ):
        self.offset = offset
        self.txn_id = txn_id
        self.on_quorum = on_quorum
        self.on_indeterminate = on_indeterminate
        self.on_deposed = on_deposed
        self.done = False


class QuorumGate:
    """Primary-side quorum bookkeeping: group acks, lease, fencing.

    Subscribes to the shipper's ``ack_watchers`` hook, so the quorum
    frontier advances on the ordinary replication acks — no extra
    messages.  All state is observable and all transitions run either
    synchronously under an ack delivery or under a courier timer, so a
    seeded run is deterministic.
    """

    def __init__(
        self,
        shipper: LogShipper,
        courier: Courier,
        *,
        epoch: int = 0,
        commit_timeout: float = 30.0,
        lease_ttl: float = 8.0,
        counters: SchedulerCounters | None = None,
    ):
        self.shipper = shipper
        self.courier = courier
        self.epoch = epoch
        self.commit_timeout = commit_timeout
        self.counters = counters if counters is not None else SchedulerCounters()
        self.tracer = NULL_TRACER
        self.lease = EpochLease(epoch, lease_ttl, self._now)
        self.deposed = False
        self._entries: list[_PendingCommit] = []
        self._lease_ok = True
        shipper.ack_watchers.append(self._on_ship_ack)

    # -- clock -------------------------------------------------------------------

    def _now(self) -> float:
        sim = self.courier.sim
        return sim.now if sim is not None else 0.0

    # -- quorum arithmetic ---------------------------------------------------------

    def members(self) -> int:
        """Voting cluster size: this primary plus its subscribed replicas."""
        return 1 + len(self.shipper.replica_ids())

    def majority(self) -> int:
        return self.members() // 2 + 1

    def quorum_offset(self) -> int:
        """Largest log offset durable on a majority of the cluster.

        The primary's own durable prefix counts as one member, so with
        ``majority - 1`` replica acks at or past an offset, that offset
        is majority-durable.
        """
        durable = self.shipper.log.durable_length()
        need = self.majority() - 1
        if need <= 0:
            return durable
        acked = sorted(self.shipper.acked_offset.values(), reverse=True)
        if len(acked) < need:
            return 0
        return min(durable, acked[need - 1])

    # -- lease / fencing ------------------------------------------------------------

    def note_contact(self, rid: int) -> None:
        """Quorum contact outside the ship path (heartbeat acks)."""
        if self.deposed:
            return
        self.lease.note_contact(rid)
        self._check_lease()

    def writable(self) -> bool:
        """Whether a new read-write commit may enter the pipeline."""
        if self.deposed:
            return False
        return self._check_lease()

    def _check_lease(self) -> bool:
        valid = self.lease.valid(self.majority())
        if valid != self._lease_ok:
            self._lease_ok = valid
            self.counters.bump(
                "quorum.lease_renewals" if valid else "quorum.lease_lapses"
            )
            if self.tracer.enabled:
                self.tracer.emit(
                    "quorum.lease", epoch=self.epoch, valid=valid, now=self._now()
                )
        return valid

    # -- the commit pipeline ---------------------------------------------------------

    def register(
        self,
        offset: int,
        on_quorum: Callable[[], None],
        on_indeterminate: Callable[[], None],
        on_deposed: Callable[[BaseException], None],
        txn_id: int = 0,
    ) -> None:
        """Queue a forced commit (durable up to ``offset``) for the group ack.

        Resolves immediately when the offset is already majority-durable —
        the case with an immediate-mode courier, where the ship round trip
        completed inside ``force()`` before registration.
        """
        assert not self.deposed, "register on a deposed gate"
        self._drain()  # keep resolution FIFO: older covered entries first
        entry = _PendingCommit(offset, txn_id, on_quorum, on_indeterminate, on_deposed)
        if offset <= self.quorum_offset():
            entry.done = True
            self.counters.bump("quorum.commits")
            on_quorum()
            return
        self._entries.append(entry)
        # No clock (immediate/manual courier) means no timeout: the caller
        # controls delivery and therefore resolution.
        self.courier.call_later(self.commit_timeout, lambda: self._expire(entry))

    def _on_ship_ack(self, rid: int, applied_offset: int, vtnc: int) -> None:
        if self.deposed:
            return
        self.lease.note_contact(rid)
        self._check_lease()
        self._drain()

    def _drain(self) -> None:
        """Resolve every queued commit the quorum frontier now covers.

        One ack batch can cover many commits — this is the group ack that
        amortizes the replication round trip across a commit burst.
        """
        frontier = self.quorum_offset()
        batch = 0
        while self._entries and self._entries[0].offset <= frontier:
            entry = self._entries.pop(0)
            if entry.done:
                continue
            entry.done = True
            batch += 1
            self.counters.bump("quorum.commits")
            entry.on_quorum()
        if batch and self.tracer.enabled:
            self.tracer.emit(
                "quorum.advance", epoch=self.epoch, offset=frontier, batch=batch
            )

    def _expire(self, entry: _PendingCommit) -> None:
        if entry.done or self.deposed:
            return
        entry.done = True
        if entry in self._entries:
            self._entries.remove(entry)
        self.counters.bump("quorum.indeterminate")
        if self.tracer.enabled:
            self.tracer.emit(
                "quorum.indeterminate",
                epoch=self.epoch,
                txn=entry.txn_id,
                offset=entry.offset,
                frontier=self.quorum_offset(),
            )
        entry.on_indeterminate()

    # -- teardown ---------------------------------------------------------------------

    def depose(self, error_factory: Callable[[int], BaseException] | None = None) -> int:
        """Fail every pending commit: the primary was crashed out of its term.

        Called by the cluster's crash-promotion path so sessions waiting on
        quorum acks unwedge with a typed, retryable error.  A *surviving*
        deposed primary (partition-side split brain) is deliberately never
        told: its fencing comes from physics — epoch-guarded acks stop
        renewing the lease and per-commit timeouts expire its pipeline.
        """
        if self.deposed:
            return 0
        self.deposed = True
        pending = [e for e in self._entries if not e.done]
        self._entries.clear()
        for entry in pending:
            entry.done = True
            error = (
                error_factory(entry.txn_id)
                if error_factory is not None
                else QuorumUnavailable(
                    entry.txn_id,
                    epoch=self.epoch,
                    detail="primary deposed before the quorum ack",
                )
            )
            entry.on_deposed(error)
        if pending:
            self.counters.bump("quorum.deposed_pending", len(pending))
        return len(pending)


class QuorumVC2PLScheduler(RecoverableVC2PLScheduler):
    """VC + strict 2PL + WAL, acknowledging commits at majority durability.

    Identical to :class:`~repro.protocols.recoverable.
    RecoverableVC2PLScheduler` up to and including the commit point.  Its
    durability gate then defers the inherited commit tail — version
    install, lock release, ``VCcomplete`` (so ``vtnc`` advances) — and the
    session's future until the :class:`QuorumGate` reports a majority.  Read-only transactions are untouched: Figure 2
    runs against ``vtnc``, which only ever covers majority-durable
    commits, so replica-served and primary-served snapshots agree on what
    "committed" means in quorum mode.
    """

    name = "vc-2pl-quorum"

    def __init__(self, gate: QuorumGate | None = None, **kwargs):
        super().__init__(**kwargs)
        self.gate = gate

    def _commit_fence(self, txn: Transaction) -> OpFuture | None:
        gate = self.gate
        if gate is None or gate.writable():
            return None
        # Fenced: the lease lapsed (or this primary was deposed), so
        # the commit is refused *before* the commit point — nothing is
        # forced, the abort is clean and complete, and a retry lands
        # wherever the current primary is.
        gate.counters.bump("quorum.fenced")
        if gate.tracer.enabled:
            gate.tracer.emit(
                "quorum.fenced", epoch=gate.epoch, txn=txn.txn_id, now=gate._now()
            )
        error = QuorumUnavailable(txn.txn_id, epoch=gate.epoch, fenced=True)
        self._rw_abort(txn, AbortReason.QUORUM_UNAVAILABLE)
        return failed(error, label=("commit T{} fenced", txn.txn_id))

    def _durability_gate(self, txn: Transaction, tn: int) -> OpFuture | None:
        # The commit point, unchanged from the recoverable scheduler:
        # durable locally; shipping fires under the force.
        super()._durability_gate(txn, tn)
        gate = self.gate
        if gate is None:
            return None
        offset = self.log.durable_length()
        future = OpFuture(label=("commit T{} (quorum)", txn.txn_id))

        # The commit tail is deferred.  It runs exactly once, either under
        # the group ack (acknowledged) or under the commit timeout
        # (indeterminate) — either way the primary's in-memory state
        # ends consistent with its own durable log, and the locks are
        # released so the pipeline cannot wedge behind a lost quorum.
        def on_quorum() -> None:
            self._commit_tail(txn, tn)
            future.resolve(None)

        def on_indeterminate() -> None:
            self._commit_tail(txn, tn)
            future.fail(
                QuorumUnavailable(
                    txn.txn_id,
                    epoch=gate.epoch,
                    detail=(
                        f"quorum ack for offset {offset} timed out in epoch "
                        f"{gate.epoch}; outcome indeterminate"
                    ),
                )
            )

        # Deposed (the crash-promotion path): the scheduler is dead, so no
        # local completion — failing the future just unwedges the session.
        gate.register(offset, on_quorum, on_indeterminate, future.fail, txn_id=txn.txn_id)
        return future


__all__ = [
    "EpochLease",
    "QuorumGate",
    "QuorumVC2PLScheduler",
    "ReplicationMode",
]
