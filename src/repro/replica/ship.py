"""Primary-side log shipping: the WAL suffix rides the courier to replicas.

The replication currency is the write-ahead log itself.  The primary's
commit point is ``force()`` (see :class:`~repro.protocols.recoverable.
RecoverableVC2PLScheduler`), so shipping exactly at force means a replica
can only ever receive records that are already durable on the primary — a
primary crash never retracts anything a replica applied.

Transport is the plain :class:`~repro.distributed.courier.Courier`
``dispatch`` surface on per-replica channels (``ship.<rid>`` out,
``ack.<rid>`` back), which is what lets :class:`~repro.faults.FaultyCourier`
drop, duplicate, delay and partition replication traffic with no
replication-specific fault code at all.  The protocol tolerates every one of
those by construction:

* segments carry ``(epoch, start_offset, records)`` — a replica applies
  idempotently from its own applied offset, buffers out-of-order arrivals,
  and ignores segments from a deposed primary's epoch;
* acks carry ``(epoch, applied_offset, vtnc)`` — the epoch is the
  *replica's* current epoch at ack time, not the segment's, so a deposed
  primary cannot count acks to its stale segments as live quorum contact;
  lost acks merely leave the shipper's view stale, and the next force
  re-ships from the stale offset (duplicate application is free);
* :meth:`LogShipper.catch_up` re-ships everything past the acknowledged
  offset, healing a partition or resubscribing a recovered replica.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.distributed.courier import Courier
from repro.obs.tracer import NULL_TRACER
from repro.storage.wal import WriteAheadLog


class LogShipper:
    """Streams the primary's durable WAL suffix to each subscribed replica.

    Per replica it tracks two offsets into the primary log: ``sent`` (how
    far it has shipped) and ``acked`` (how far the replica confirmed
    applying).  Normal shipping resumes from ``sent``; :meth:`catch_up`
    falls back to ``acked``, re-covering anything whose delivery is in
    doubt.  All state lives on the primary side — replicas are passive
    recipients addressed purely by channel name.
    """

    def __init__(self, log: WriteAheadLog, courier: Courier, epoch: int = 0):
        self.log = log
        self.courier = courier
        #: Promotion epoch stamped on every segment; replicas discard
        #: segments from older epochs so a deposed primary's in-flight
        #: traffic cannot diverge the replica set after a fail-over.
        self.epoch = epoch
        self.tracer = NULL_TRACER
        self._replicas: dict[int, Any] = {}
        #: One entry per subscribed replica in each of these three, set by
        #: ``add_replica`` and dropped by ``remove_replica``.
        self.sent_offset: dict[int, int] = {}
        self.acked_offset: dict[int, int] = {}
        self.acked_vtnc: dict[int, int] = {}
        self.segments_shipped = 0
        self.records_shipped = 0
        #: Observers called as ``fn(rid, applied_offset, vtnc)`` after every
        #: accepted (current-epoch) ack — the quorum gate subscribes here to
        #: advance the group-acknowledged frontier and renew the lease.
        self.ack_watchers: list[Callable[[int, int, int], None]] = []

    # -- subscription -----------------------------------------------------------

    def add_replica(self, replica: Any, from_offset: int = 0) -> None:
        """Subscribe ``replica`` and ship it everything past ``from_offset``.

        ``from_offset`` is the replica's already-applied prefix length —
        zero for a fresh replica, its applied offset when re-syncing
        survivors after a promotion (their applied prefix is by
        construction a prefix of the promoted log).
        """
        rid = replica.replica_id
        self._replicas[rid] = replica
        self.sent_offset[rid] = from_offset
        self.acked_offset[rid] = from_offset
        self.acked_vtnc[rid] = replica.vtnc
        self.catch_up(rid)

    def remove_replica(self, rid: int) -> None:
        self._replicas.pop(rid, None)
        self.sent_offset.pop(rid, None)
        self.acked_offset.pop(rid, None)
        self.acked_vtnc.pop(rid, None)

    def detach(self) -> None:
        """Stop shipping entirely (the shipper's primary was deposed)."""
        for rid in list(self._replicas):
            self.remove_replica(rid)

    # -- shipping ---------------------------------------------------------------

    def ship(self) -> None:
        """Ship the durable suffix each replica has not been sent yet.

        Subscribed to :meth:`WriteAheadLog.force`, so this runs at every
        commit point.  Delivery is asynchronous through the courier; a
        drop only delays a replica until the courier's retransmission (or
        the next :meth:`catch_up`) re-covers the records.
        """
        for rid in list(self._replicas):
            self._ship_from(rid, self.sent_offset[rid])

    def catch_up(self, rid: int) -> None:
        """Re-ship from the replica's *acknowledged* offset.

        The belt-and-braces path: anything sent but never acked (lost in a
        partition, crashed courier queue) is shipped again.  Idempotent
        application makes the overlap free.
        """
        self._ship_from(rid, self.acked_offset.get(rid, 0))

    def catch_up_all(self) -> None:
        for rid in list(self._replicas):
            self.catch_up(rid)

    def _ship_from(self, rid: int, offset: int) -> None:
        records = self.log.durable_suffix(offset)
        if not records:
            return
        replica = self._replicas[rid]
        epoch = self.epoch
        self.segments_shipped += 1
        self.records_shipped += len(records)
        self.sent_offset[rid] = max(self.sent_offset[rid], offset + len(records))
        if self.tracer.enabled:
            self.tracer.emit("replica.ship", rid, epoch, offset, len(records))

        def deliver(records=records, offset=offset, epoch=epoch, rid=rid) -> None:
            applied_offset, vtnc = replica.receive_segment(epoch, offset, records)
            # The ack is stamped with the replica's epoch *now*, after the
            # segment was (or was not) applied.  If the replica has moved to
            # a newer epoch, a deposed primary's shipper sees a mismatched
            # ack and drops it — its lease cannot be renewed by acks to
            # segments the replica already discarded.
            ack_epoch = replica.epoch

            def ack() -> None:
                self.on_ack(rid, ack_epoch, applied_offset, vtnc)

            self.courier.dispatch(ack, channel=f"ack.{rid}")

        self.courier.dispatch(deliver, channel=f"ship.{rid}")

    def on_ack(self, rid: int, epoch: int, applied_offset: int, vtnc: int) -> None:
        """A replica confirmed its applied prefix and watermark."""
        if epoch != self.epoch or rid not in self._replicas:
            return  # stale ack from before a promotion (or a removed replica)
        if applied_offset > self.acked_offset[rid]:
            self.acked_offset[rid] = applied_offset
        if vtnc > self.acked_vtnc[rid]:
            self.acked_vtnc[rid] = vtnc
        if self.tracer.enabled:
            self.tracer.emit(
                "replica.ack",
                rid,
                epoch,
                applied_offset,
                vtnc,
                self.lag_records(rid),
            )
        for watcher in list(self.ack_watchers):
            watcher(rid, applied_offset, vtnc)

    # -- lag metrics -------------------------------------------------------------

    def lag_records(self, rid: int) -> int:
        """Unacknowledged durable records for ``rid`` (0 = fully caught up)."""
        return max(self.log.durable_length() - self.acked_offset.get(rid, 0), 0)

    def lag_txns(self, rid: int, primary_vtnc: int) -> int:
        """Watermark distance ``vtnc_primary - vtnc_replica`` (acked view)."""
        return max(primary_vtnc - self.acked_vtnc.get(rid, 0), 0)
