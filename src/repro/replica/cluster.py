"""A primary plus N log-shipped read replicas behind one handle.

The cluster owns the wiring: a :class:`~repro.storage.wal.WriteAheadLog`
under a recoverable primary scheduler, a :class:`~repro.replica.ship.
LogShipper` subscribed to the log's force hook, and the
:class:`~repro.replica.node.Replica` set.  Every commit on the primary
forces the log and therefore ships, so replication needs no cooperation
from the protocol code at all.

Two durability modes (:class:`~repro.replica.quorum.ReplicationMode`):

* ``ASYNC`` (default) — commits acknowledge at the primary's local
  ``force()``; fail-over loses the replication lag (RPO = lag);
* ``QUORUM`` — the primary is a :class:`~repro.replica.quorum.
  QuorumVC2PLScheduler` behind a :class:`~repro.replica.quorum.QuorumGate`:
  commits acknowledge only at majority durability, the gate's epoch lease
  fences a primary that loses quorum contact, and fail-over provably
  preserves every acknowledged commit (RPO = 0).

**Promotion** (:meth:`ReplicaCluster.fail_over`) reuses the ordinary
crash-recovery path: the most-advanced replica's applied log — by
construction a record-for-record prefix of the old primary's durable log —
is handed to :func:`repro.storage.wal.recover`, and the rebuilt store and
version control become a fresh primary.  The promotion epoch increments so
segments still in flight from the deposed primary are discarded by every
replica, and survivors re-subscribe from their own applied offsets (valid
prefixes of the promoted log, because the promoted replica was the most
advanced).  With ``crash_old=False`` the deposed primary is *not* crashed
— the partition scenario, where nobody can reach it to kill it — and its
neutralization rests entirely on the epoch checks and the quorum lease.

The replicated primary never truncates its log (no ``checkpoint()`` calls):
shipping addresses records by absolute offset, and truncation would shift
them under the replicas.  ``docs/replication.md`` discusses the trade.
"""

from __future__ import annotations

from typing import Callable

from repro.core.interface import SchedulerCounters
from repro.distributed.courier import Courier
from repro.errors import (
    AbortReason,
    ProtocolError,
    QuorumUnavailable,
    TransactionAborted,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.protocols.recoverable import RecoverableVC2PLScheduler
from repro.replica.node import Replica
from repro.replica.quorum import QuorumGate, QuorumVC2PLScheduler, ReplicationMode
from repro.replica.ship import LogShipper
from repro.storage.wal import WriteAheadLog, recover


class ReplicaCluster:
    """One write primary, N read replicas, and the shipping between them."""

    def __init__(
        self,
        n_replicas: int = 2,
        courier: Courier | None = None,
        mode: ReplicationMode | str = ReplicationMode.ASYNC,
    ):
        self.courier = courier if courier is not None else Courier()
        self.mode = ReplicationMode(mode) if isinstance(mode, str) else mode
        self.epoch = 0
        #: Cluster-level counters: RO routing decisions, promotions, quorum.
        self.counters = SchedulerCounters()
        self.tracer = NULL_TRACER
        self.replicas: dict[int, Replica] = {}
        self.promotions = 0
        #: Promotion hooks, fired at the end of every :meth:`fail_over` with
        #: the promoted replica — the supervisor re-arms here.
        self.on_promote: list[Callable[[Replica], None]] = []
        #: Details of the most recent fail-over (epochs, watermarks, lag).
        self.last_failover: dict | None = None
        #: The attached ClusterSupervisor, if any (set by the supervisor).
        self.supervisor = None
        self._lease_config = None
        self._next_rid = 1
        self._rr = 0  # round-robin cursor for pick_replica
        self.gate: QuorumGate | None = None
        #: The replica the last fail-over promoted: its log is the primary's,
        #: and it fences the deposed primary's in-flight segments.
        self._promoted: Replica | None = None
        self._ship_token: int | None = None
        self._build_primary(WriteAheadLog())
        for _ in range(n_replicas):
            self.add_replica()

    def _trace(self, tracer: Tracer) -> None:
        """Counters, courier, the primary's incarnation, the supervisor and
        every replica; a fail-over silences what it deposes."""
        self.tracer = self.counters.tracer = self.courier.tracer = tracer
        self._trace_primary(tracer)
        if self.supervisor is not None:
            self.supervisor.tracer = tracer
        for replica in self.replicas.values():
            replica._trace(tracer)

    def _trace_primary(self, tracer: Tracer) -> None:
        """The primary's incarnation: scheduler, shipper, gate, promoted replica."""
        self.primary._trace(tracer)
        self.shipper.tracer = tracer
        if self.gate is not None:
            self.gate.tracer = tracer
        if self._promoted is not None:
            self._promoted._trace(tracer)

    # -- primary construction ------------------------------------------------------

    def _build_primary(self, log: WriteAheadLog, store=None, version_control=None) -> None:
        """(Re)build the primary, shipper, and (in quorum mode) the gate."""
        self.log = log
        self.shipper = LogShipper(log, self.courier, epoch=self.epoch)
        self._ship_token = log.subscribe_force(self.shipper.ship)
        kwargs = dict(log=log)
        if store is not None:
            kwargs.update(store=store, version_control=version_control)
        if self.mode is ReplicationMode.QUORUM:
            self.gate = QuorumGate(
                self.shipper,
                self.courier,
                epoch=self.epoch,
                counters=self.counters,
            )
            self.primary = QuorumVC2PLScheduler(gate=self.gate, **kwargs)
            if self._lease_config is not None:
                self._apply_lease_config()
        else:
            self.gate = None
            self.primary = RecoverableVC2PLScheduler(**kwargs)
        self._trace_primary(self.tracer)

    def arm_lease(self, config) -> None:
        """Arm the quorum lease per a :class:`~repro.replica.detect.
        HeartbeatConfig`; re-applied automatically to every future primary.
        No-op in async mode (there is no gate to fence)."""
        self._lease_config = config
        self._apply_lease_config()

    def _apply_lease_config(self) -> None:
        if self.gate is None or self._lease_config is None:
            return
        self.gate.lease.ttl = self._lease_config.lease_ttl
        self.gate.commit_timeout = self._lease_config.commit_timeout
        self.gate.lease.arm()

    # -- membership --------------------------------------------------------------

    def add_replica(self) -> Replica:
        """Create, subscribe, and catch up a fresh replica."""
        replica = Replica(self._next_rid)
        replica._trace(self.tracer)
        replica.epoch = self.epoch
        self._next_rid += 1
        self.replicas[replica.replica_id] = replica
        self.shipper.add_replica(replica)
        return replica

    def pick_replica(self) -> Replica | None:
        """Deterministic round-robin over the replica set (None if empty)."""
        if not self.replicas:
            return None
        rids = sorted(self.replicas)
        rid = rids[self._rr % len(rids)]
        self._rr += 1
        return self.replicas[rid]

    # -- lag ---------------------------------------------------------------------

    def lag_txns(self, replica: Replica) -> int:
        """Watermark distance ``vtnc_primary - vtnc_replica``, ground truth."""
        return max(self.primary.vc.vtnc - replica.vtnc, 0)

    def lag_records(self, replica: Replica) -> int:
        """Durable log records the replica has not applied yet."""
        return max(self.log.durable_length() - replica.applied_offset, 0)

    def max_lag_txns(self) -> int:
        if not self.replicas:
            return 0
        return max(self.lag_txns(r) for r in self.replicas.values())

    # -- promotion ---------------------------------------------------------------

    def fail_over(
        self, replica_id: int | None = None, crash_old: bool = True
    ) -> Replica:
        """Depose the primary and promote a replica through the recovery path.

        Picks the most-advanced replica (largest applied offset, smallest
        id on ties) unless ``replica_id`` names one explicitly — in which
        case it must be at least as advanced as every survivor, or the
        survivors' applied prefixes would not be prefixes of the new
        primary's log and the cluster would diverge.  Returns the promoted
        replica (now detached from the replica set).

        With ``crash_old`` (the default, modelling a detected crash) the
        old primary fail-stops: queued lock requests fail with
        SITE_FAILURE, actives abort, the volatile log tail is lost, the
        old shipper detaches, and (in quorum mode) pending quorum commits
        fail with retryable :class:`~repro.errors.QuorumUnavailable` so no
        session wedges.  With ``crash_old=False`` (a partitioned primary
        nobody can reach) the old incarnation is left entirely alone —
        still running, still subscribed to its own log — and the cluster's
        safety rests, deliberately, on the epoch checks in the ship/ack
        path and on the quorum lease fencing its commits.
        """
        if not self.replicas:
            raise ProtocolError("fail_over requires at least one replica")

        old = self.primary
        old_gate = self.gate
        old_epoch = self.epoch
        old_vtnc = old.vc.vtnc
        lost = 0
        if crash_old:
            # Fail-stop the old primary: every queued lock request fails
            # with SITE_FAILURE (aborting its requester, exactly like a
            # site crash in the distributed layer), remaining actives
            # abort, the volatile log tail is lost, and the old shipper
            # stops — a deposed primary that keeps committing must not
            # reach the replica set.
            old.locks.crash(
                lambda txn_id: TransactionAborted(
                    txn_id, AbortReason.SITE_FAILURE, detail="primary failed"
                )
            )
            for txn in list(old.active_transactions()):
                if txn.is_active:
                    old.abort(txn, AbortReason.SITE_FAILURE)
            lost = old.crash()
            self.log.unsubscribe_force(self._ship_token)
            self.shipper.detach()
            if old_gate is not None:
                # Commits past the commit point but short of their quorum:
                # the sessions waiting on them get a typed, retryable
                # failure instead of wedging on a dead primary.
                old_gate.depose(
                    lambda txn_id: QuorumUnavailable(
                        txn_id,
                        epoch=old_epoch,
                        detail="primary crashed before the quorum ack",
                    )
                )

        best = max(
            self.replicas.values(), key=lambda r: (r.applied_offset, -r.replica_id)
        )
        if replica_id is None:
            chosen = best
        else:
            chosen = self.replicas[replica_id]
            if chosen.applied_offset < best.applied_offset:
                raise ProtocolError(
                    f"replica {replica_id} (applied={chosen.applied_offset}) is "
                    f"behind replica {best.replica_id} "
                    f"(applied={best.applied_offset}); promoting it would "
                    "diverge the survivors"
                )
        del self.replicas[chosen.replica_id]
        # The deposed incarnation leaves the topology: none of it may emit
        # from here on, even a primary left running (``crash_old=False``).
        self._trace_primary(NULL_TRACER)
        self._promoted = chosen

        # The recovery path, reused verbatim: the promoted replica's applied
        # log is a durable prefix of the old primary's log.
        store, vc = recover(chosen.log)
        self.epoch += 1
        # Retire the promoted replica's receive path: its log is the new
        # primary's log now, and a deposed-primary segment still in flight
        # to it would otherwise append the lost tail into the promoted log
        # — colliding with the tns the new primary is about to assign.
        chosen.adopt_epoch(self.epoch)
        self._build_primary(chosen.log, store=store, version_control=vc)
        for replica in self.replicas.values():
            # Re-subscription is a synchronous control step: the survivor
            # adopts the new epoch *before* any data-plane traffic, so the
            # deposed primary's in-flight segments (possibly extending past
            # the promoted prefix) can no longer reach its log.
            replica.adopt_epoch(self.epoch)
            self.shipper.add_replica(replica, from_offset=replica.applied_offset)
        self.promotions += 1
        self.counters.bump("replica.promotions")
        self.last_failover = {
            "old_epoch": old_epoch,
            "epoch": self.epoch,
            "old_vtnc": old_vtnc,
            "promoted_vtnc": vc.vtnc,
            "lag_txns": max(old_vtnc - vc.vtnc, 0),
            "lost_volatile_records": lost,
            "crash_old": crash_old,
            "promoted": chosen.replica_id,
        }
        if self.tracer.enabled:
            self.tracer.emit(
                "replica.promote",
                chosen.replica_id,
                self.epoch,
                vc.vtnc,
                lost,
                len(self.replicas),
            )
        for hook in list(self.on_promote):
            hook(chosen)
        return chosen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReplicaCluster epoch={self.epoch} mode={self.mode.value} "
            f"replicas={sorted(self.replicas)} vtnc={self.primary.vc.vtnc}>"
        )
