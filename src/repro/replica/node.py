"""A read replica: WAL application, the local watermark, and Figure 2 reads.

A replica is *not* a scheduler subclass — it is the minimal machine the
paper's Figure 2 needs: a multiversion store plus a visible watermark.
Read-only sessions opened here run the exact read rule of the centralized
protocols (largest committed version ``<= sn``), with ``sn(T)`` taken from
the **local** watermark ``vtnc_replica``:

* every version the replica installs has a creator ``tn`` that became
  durable-committed on the primary, and the watermark only advances over a
  *contiguous* prefix of applied transaction numbers — so every version
  ``<= vtnc_replica`` is committed and no read can observe a torn or
  uncommitted state (snapshot consistency);
* ``vtnc_replica <= vtnc_primary`` always: the replica can only apply what
  the primary already made durable, so replica snapshots are *stale*, never
  *wrong*, and the staleness is measurable (``frontier_tn - vtnc``);
* reads never block and never touch concurrency control — ``cc.ro`` stays
  0 here just as it does on the primary, which is the whole reason the
  paper's read-only transactions can be served from a replica at all.

Write-side calls raise :class:`~repro.errors.ProtocolError`: routing
read-write work to the primary is the session layer's job
(:class:`~repro.replica.session.ReplicatedDatabase`).
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.futures import OpFuture, resolved
from repro.core.interface import SchedulerCounters
from repro.core.transaction import Transaction, TxnClass
from repro.errors import AbortReason, ProtocolError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.storage.mvstore import MVStore
from repro.storage.wal import LogRecord, RecordKind, Redo, WriteAheadLog


class Replica:
    """One log-shipped read replica with a local visible watermark."""

    def __init__(self, replica_id: int):
        self.replica_id = replica_id
        self.store = MVStore()
        #: Local durable copy of the applied log prefix.  Kept record-for-
        #: record identical to the primary's durable prefix up to
        #: ``applied_offset``, which is what lets promotion reuse the
        #: ordinary crash-recovery path (``recover(replica.log)``).
        self.log = WriteAheadLog()
        #: The replica's visible watermark: largest tn such that every
        #: transaction numbered <= it is applied here.  Invariant:
        #: ``vtnc <= vtnc_primary``, and monotone non-decreasing.
        self.vtnc = 0
        #: Promotion epoch of the primary this replica last heard from.
        self.epoch = 0
        #: Length of the contiguously applied log prefix.
        self.applied_offset = 0
        #: Largest committed tn seen in *any* received segment (applied or
        #: still buffered) — the replica's own staleness reference point.
        self.frontier_tn = 0
        self.counters = SchedulerCounters()
        self.tracer = NULL_TRACER
        self.segments_buffered = 0
        self.segments_stale = 0
        #: Applies the received records to ``store``, in log order.
        self._redo = Redo(self.store)
        #: Applied committed tns above the watermark (waiting for the gap
        #: below them to fill before the watermark may pass them).
        self._applied_above: set[int] = set()
        #: Out-of-order segments keyed by their start offset.
        self._pending: dict[int, list[LogRecord]] = {}

    def _trace(self, tracer: Tracer) -> None:
        """Give ``tracer`` to this replica and its counters."""
        self.tracer = self.counters.tracer = tracer

    # -- log application ----------------------------------------------------------

    def adopt_epoch(self, epoch: int) -> None:
        """Accept a new primary's term (the re-subscription control step).

        Called synchronously during promotion so that a deposed primary's
        still-in-flight segments — which may extend past the promoted
        replica's prefix and would silently diverge this replica's log —
        are discarded on arrival.  Buffered old-epoch segments drop too.
        """
        if epoch > self.epoch:
            self.epoch = epoch
            self._pending.clear()

    def receive_segment(
        self, epoch: int, start: int, records: list[LogRecord]
    ) -> tuple[int, int]:
        """Apply a shipped log segment; returns ``(applied_offset, vtnc)``.

        Tolerates everything a faulty courier can do to the stream:

        * **duplicate / overlapping** — records below ``applied_offset``
          are skipped, so each log position is applied exactly once;
        * **out of order** — a segment starting past the applied prefix is
          buffered and drained once the gap arrives;
        * **stale epoch** — traffic from a deposed primary is discarded;
          a *newer* epoch adopts and drops any buffered old-epoch tail.
        """
        if epoch < self.epoch:
            self.segments_stale += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "replica.segment_stale", self.replica_id,
                    epoch, self.epoch,
                )
            return self.applied_offset, self.vtnc
        if epoch > self.epoch:
            self.epoch = epoch
            self._pending.clear()
        if start > self.applied_offset:
            # A gap: keep the longest segment offered for this start.
            kept = self._pending.get(start)
            if kept is None or len(records) > len(kept):
                self._pending[start] = list(records)
            self.segments_buffered += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "replica.segment_buffered", self.replica_id,
                    start, self.applied_offset,
                )
            self._note_frontier(records)
            return self.applied_offset, self.vtnc
        self._apply(records[self.applied_offset - start :])
        self._drain_pending()
        return self.applied_offset, self.vtnc

    def _drain_pending(self) -> None:
        while self._pending:
            ready = [s for s in self._pending if s <= self.applied_offset]
            if not ready:
                return
            for start in sorted(ready):
                records = self._pending.pop(start)
                if start + len(records) > self.applied_offset:
                    self._apply(records[self.applied_offset - start :])

    def _note_frontier(self, records: list[LogRecord]) -> None:
        for record in records:
            if record.kind is RecordKind.COMMIT and record.tn is not None:
                if record.tn > self.frontier_tn:
                    self.frontier_tn = record.tn

    def _apply(self, records: list[LogRecord]) -> None:
        redo = self._redo
        for record in records:
            self.log.append(record)
            self.applied_offset += 1
            tn = redo.apply(record)
            if tn is not None:
                if tn > self.frontier_tn:
                    self.frontier_tn = tn
                if tn > self.vtnc:
                    self._applied_above.add(tn)
                self._advance_watermark()
            elif redo.floor > self.vtnc:
                # A checkpoint settles every tn up to its floor, so the
                # watermark may jump straight past them.
                self.vtnc = redo.floor
                self._applied_above = {t for t in self._applied_above if t > self.vtnc}
                if self.vtnc > self.frontier_tn:
                    self.frontier_tn = self.vtnc
                self._advance_watermark()
        # One durable flush per received batch, mirroring group commit.
        self.log.force()

    def _advance_watermark(self) -> None:
        """Advance ``vtnc`` over the contiguous applied prefix of tns.

        The replica-side analogue of the VCQueue drain: a committed tn
        becomes visible only once every smaller tn is applied too, so a
        snapshot at ``sn = vtnc`` can never observe transaction ``j``
        while missing some ``i < j`` — the paper's Transaction Visibility
        property, re-established locally.
        """
        before = self.vtnc
        while (self.vtnc + 1) in self._applied_above:
            self._applied_above.discard(self.vtnc + 1)
            self.vtnc += 1
        if self.tracer.enabled and self.vtnc != before:
            self.tracer.emit(
                "replica.watermark", self.replica_id,
                self.vtnc, self.vtnc - before,
                self.staleness_bound,
            )

    # -- staleness ---------------------------------------------------------------

    @property
    def staleness_bound(self) -> int:
        """How many committed-on-primary tns this replica cannot yet see.

        Measured against the replica's own receive frontier — the largest
        committed tn it has heard of — so the bound is computable locally
        without asking the primary.  0 means perfectly fresh *as far as
        the replica knows*.
        """
        return max(self.frontier_tn - self.vtnc, 0)

    # -- the scheduler surface for read-only sessions -----------------------------

    def begin(
        self, read_only: bool = False, deadline: float | None = None
    ) -> Transaction:
        """Open a read-only transaction at ``sn = vtnc_replica``.

        Never consults admission control and never blocks — the paper's
        read-only fast path, served off-primary.  Read-write begins are a
        routing error, not a degraded mode: the replica has no lock
        manager, no VC queue, and no way to order writes.
        """
        if not read_only:
            raise ProtocolError(
                f"replica {self.replica_id} serves read-only transactions; "
                "route read-write begins to the primary"
            )
        txn = Transaction(TxnClass.READ_ONLY, deadline=deadline)
        txn.sn = self.vtnc
        txn.meta["qos.staleness"] = self.staleness_bound
        txn.meta["replica.id"] = self.replica_id
        self.counters.note_begin(txn)
        self.counters.note_vc_interaction(txn, "start")
        if self.tracer.enabled:
            self.tracer.emit(
                "replica.ro_snapshot", self.replica_id,
                txn.txn_id, txn.sn, self.staleness_bound,
            )
        return txn

    def read(self, txn: Transaction, key: Hashable) -> OpFuture:
        """Figure 2 read rule against the local store; never blocks."""
        txn.require_active()
        if not txn.is_read_only:
            raise ProtocolError(
                f"transaction {txn.txn_id} is not read-only; replicas serve "
                "snapshot reads only"
            )
        assert txn.sn is not None
        version = self.store.read_snapshot(key, txn.sn)
        txn.record_read(key, version.tn)
        return resolved(
            version.value,
            label=("r{}[{}_{}]@replica{}", txn.txn_id, key, version.tn, self.replica_id),
        )

    def write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        raise ProtocolError(
            f"replica {self.replica_id} is read-only; writes go to the primary"
        )

    def commit(self, txn: Transaction) -> OpFuture:
        txn.require_active()
        txn.mark_committed()
        self.counters.note_commit(txn)
        return resolved(None, label=("commit RO T{}", txn.txn_id))

    def abort(
        self, txn: Transaction, reason: AbortReason = AbortReason.USER_REQUESTED
    ) -> None:
        if txn.is_finished:
            return
        txn.mark_aborted(reason)
        self.counters.note_abort(txn, reason, caused_by_readonly=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Replica {self.replica_id} vtnc={self.vtnc} "
            f"applied={self.applied_offset} epoch={self.epoch}>"
        )
