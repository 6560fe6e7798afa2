"""Recoverable VC + 2PL: Figure 4 with write-ahead logging.

Extends :class:`~repro.protocols.vc_two_phase_locking.VC2PLScheduler` with
the WAL discipline of :mod:`repro.storage.wal`:

* each staged write appends a volatile WRITE record;
* ``end(T)`` appends COMMIT(tn) **and forces the log** after ``VCregister``
  but *before* the database updates — the force is the commit point, and
  it is the only thing this class adds to the inherited ``end(T)`` sequence
  (the durability gate of ``VC2PLScheduler._rw_commit``);
* aborts append an ABORT record (no force needed: an unforced transaction
  simply vanishes at a crash).

``crash()`` simulates a failure: every in-flight transaction is wiped with
the volatile log suffix, and :meth:`recovered` returns a fresh scheduler
over the state rebuilt from the durable log.  Tests inject crashes at every
stage of the commit path and assert the all-or-nothing outcome.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.futures import OpFuture
from repro.core.transaction import Transaction
from repro.errors import AbortReason, ProtocolError
from repro.protocols.vc_two_phase_locking import VC2PLScheduler
from repro.storage.wal import LogRecord, RecordKind, WriteAheadLog, checkpoint_record, recover


class RecoverableVC2PLScheduler(VC2PLScheduler):
    """VC + strict 2PL with write-ahead logging and crash recovery."""

    name = "vc-2pl-wal"

    def __init__(self, log: WriteAheadLog | None = None, **kwargs):
        super().__init__(**kwargs)
        #: What :meth:`recovered` carries over; store and version control
        #: are rebuilt from the log.
        self._config = {
            name: value
            for name, value in kwargs.items()
            if name not in ("store", "version_control")
        }
        self.log = log if log is not None else WriteAheadLog()
        #: Set by :meth:`crash`; a crashed scheduler refuses further work.
        self.crashed = False

    # -- logging hooks ----------------------------------------------------------

    def _stage_write(self, txn: Transaction, key: Hashable, value: Any) -> None:
        super()._stage_write(txn, key, value)
        self.log.append(LogRecord(RecordKind.WRITE, txn.txn_id, key=key, value=value))

    def _durability_gate(self, txn: Transaction, tn: int) -> OpFuture | None:
        self.log.append(LogRecord(RecordKind.COMMIT, txn.txn_id, tn=tn))
        self.log.force()  # the commit point: everything before is durable
        return None

    def _rw_abort(self, txn: Transaction, reason: AbortReason) -> None:
        self.log.append(LogRecord(RecordKind.ABORT, txn.txn_id))
        super()._rw_abort(txn, reason)

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self, truncate: bool = True) -> int:
        """Write a checkpoint and (by default) truncate the log before it.

        The checkpoint snapshots every *retained* version (so it composes
        with garbage collection: collected versions simply never reach the
        next checkpoint) plus the numbering frontier.  Returns the number of
        log records dropped by truncation.

        Safe at any quiescent-or-not moment: in-flight transactions' WRITE
        records after the checkpoint replay normally, and their earlier
        WRITE records are only dropped if the transaction has no chance of
        committing before the checkpoint anyway — so the checkpoint is taken
        only when no read-write transaction is in flight, enforced here.
        """
        if any(t.is_read_write for t in self.active_transactions()):
            raise ProtocolError("checkpoint requires no in-flight read-write txns")
        versions: list = []
        for key in self.store.keys():
            for version in self.store.object(key).versions():
                if version.tn != 0:
                    versions.append((key, version.tn, version.value))
        self.log.append(checkpoint_record(self.vc.tnc, versions))
        self.log.force()
        return self.log.truncate_before_checkpoint() if truncate else 0

    # -- crash / recovery ----------------------------------------------------------

    def crash(self) -> int:
        """Fail-stop: lose volatile log records and all in-memory state.

        Returns the number of log records lost.  The scheduler object is
        dead afterwards; continue with :meth:`recovered`.
        """
        self.crashed = True
        return self.log.crash()

    def recovered(self) -> "RecoverableVC2PLScheduler":
        """A fresh scheduler over the state rebuilt from the durable log."""
        store, vc = recover(self.log)
        return RecoverableVC2PLScheduler(
            log=self.log, store=store, version_control=vc, **self._config
        )
