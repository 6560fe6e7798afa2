"""Shared base for all version-controlled schedulers.

Everything the paper's three protocol instantiations (VC+2PL, VC+TO, VC+OCC)
have in common lives here — which is precisely the paper's point: the
version-control side of the algorithms is identical, and read-only
transactions (Figure 2) run the same code regardless of the concurrency
control underneath.

A read-only transaction:

1. calls ``VCstart()`` exactly once at begin to obtain ``sn(T) = vtnc``;
2. reads, per object, the largest version ``<= sn(T)`` — never blocked,
   never rejected (barring garbage collection of the needed version);
3. at end, does nothing (``phi`` in Figure 2) beyond deregistering from the
   garbage-collection registry.

It makes *zero* calls into the concurrency-control component; the counters
prove it (``cc.ro`` stays 0 for every VC protocol — experiment EXP-A).
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.futures import OpFuture, failed, resolved
from repro.core.interface import Scheduler
from repro.core.transaction import Transaction
from repro.core.version_control import VersionControl
from repro.errors import AbortReason, ProtocolError, SnapshotTooOld
from repro.storage.gc import GarbageCollector, ReadOnlyRegistry
from repro.storage.mvstore import MVStore


class VersionControlledScheduler(Scheduler):
    """Base class wiring a VersionControl module to a multiversion store.

    Subclasses implement the read-write side only, via the ``_rw_*`` hooks.
    """

    def __init__(
        self,
        store: MVStore | None = None,
        version_control: VersionControl | None = None,
    ):
        super().__init__()
        self.store = store if store is not None else MVStore()
        self.vc = version_control if version_control is not None else VersionControl()
        self.ro_registry = ReadOnlyRegistry()
        self.gc = GarbageCollector(self.store, self.vc, self.ro_registry)

    # -- begin ---------------------------------------------------------------

    def _on_begin(self, txn: Transaction) -> None:
        if txn.is_read_only:
            # Figure 2: sn(T) <- VCstart();  tn(T) <- sn(T).
            txn.sn = self.vc.vc_start()
            self.counters.note_vc_interaction(txn, "start")
            # The snapshot lease rides on the transaction: every read
            # checks and renews it there, never through the shared table.
            txn.private = self.ro_registry.register(txn)
            # The read-only fast path's reported staleness bound: the
            # snapshot at sn = vtnc trails the newest assigned transaction
            # number by exactly vc.lag (see docs/robustness.md).
            txn.meta["qos.staleness"] = self.vc.lag
            if self.tracer.enabled:
                self.tracer.emit("qos.ro_snapshot", txn.txn_id, txn.sn, self.vc.lag)
        else:
            self._rw_begin(txn)

    # -- operations -----------------------------------------------------------

    def read(self, txn: Transaction, key: Hashable) -> OpFuture:
        txn.require_active()
        if txn.is_read_only:
            return self._read_only_read(txn, key)
        return self._rw_read(txn, key)

    def write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        txn.require_active()
        if txn.is_read_only:
            raise ProtocolError(
                f"transaction {txn.txn_id} is read-only; writes are not allowed"
            )
        return self._rw_write(txn, key, value)

    def commit(self, txn: Transaction) -> OpFuture:
        txn.require_active()
        if txn.is_read_only:
            # Figure 2: end(T) executes nothing.
            self.ro_registry.deregister(txn)
            self._complete_commit(txn)
            return resolved(None, label=("commit RO T{}", txn.txn_id))
        return self._rw_commit(txn)

    def abort(self, txn: Transaction, reason: AbortReason = AbortReason.USER_REQUESTED) -> None:
        if txn.is_finished:
            return
        if txn.is_read_only:
            self.ro_registry.deregister(txn)
            self._complete_abort(txn, reason)
            return
        self._rw_abort(txn, reason)

    # -- the Figure 2 read rule --------------------------------------------------

    def _read_only_read(self, txn: Transaction, key: Hashable) -> OpFuture:
        """Return the version with the largest number <= sn(T). Never blocks.

        Every version numbered <= vtnc is committed (Transaction Visibility
        Property), and sn(T) <= vtnc, so the lookup cannot hit a pending
        version and cannot wait.

        Lease discipline (docs/gc.md): the snapshot lease is checked and
        renewed *before* the store is touched.  A revoked lease means GC may
        already have reclaimed the version this snapshot needs, so the read
        fails with retryable SnapshotTooOld and the transaction is aborted —
        degrade, never a wrong read.
        """
        lease = txn.private
        if lease.revoked:
            error = SnapshotTooOld(
                txn.txn_id, sn=lease.sn, cause=lease.revoke_cause or "revoked"
            )
            self.abort(txn, AbortReason.SNAPSHOT_TOO_OLD)
            return failed(error, label=("r{}[{}] snapshot-too-old", txn.txn_id, key))
        self.ro_registry.renew_lease(lease)
        version = self.store.read_snapshot(key, txn.sn)
        self._note_read(txn, key, version.tn)
        return resolved(version.value, label=("r{}[{}_{}]", txn.txn_id, key, version.tn))

    # -- read-write hooks (the concurrency-control side) ----------------------------

    def _rw_begin(self, txn: Transaction) -> None:
        raise NotImplementedError

    def _rw_read(self, txn: Transaction, key: Hashable) -> OpFuture:
        raise NotImplementedError

    def _rw_write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        raise NotImplementedError

    def _rw_commit(self, txn: Transaction) -> OpFuture:
        raise NotImplementedError

    def _rw_abort(self, txn: Transaction, reason: AbortReason) -> None:
        raise NotImplementedError
