"""Reed's multiversion timestamp ordering — baseline (paper Section 2).

Every transaction — read-only transactions included — receives a timestamp at
begin and is synchronized through per-version timestamps:

* ``read(x)`` returns the version with the largest ``w_ts <= ts(T)`` and
  raises that version's read timestamp to ``ts(T)``.  If the version is a
  *pending* write by another transaction the read blocks.
* ``write(x)`` locates the version ``v`` that would immediately precede the
  new one (largest ``w_ts <= ts(T)``).  If some transaction younger than T
  has already read ``v`` (``v.r_ts > ts(T)``), the write would invalidate
  that read and T is aborted.  Otherwise a pending version is inserted —
  possibly *between* existing versions.

The drawbacks the paper lists are all observable here and measured by the
experiment harness:

1. read-only reads block behind pending writes (EXP-C);
2. read-only reads perform synchronization writes — they update ``r_ts`` —
   so they have real concurrency-control overhead (EXP-A) and, in a
   distributed setting, would require two-phase commit;
3. a read-only transaction's ``r_ts`` update can force a read-write
   transaction to abort (EXP-B); the scheduler attributes each rejection,
   counting those that only happened because of a read-only reader.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.cc.waitlist import WaitList
from repro.core.futures import OpFuture
from repro.core.interface import Scheduler
from repro.core.transaction import Transaction
from repro.errors import AbortReason, TransactionAborted
from repro.storage.mvstore import MVStore


class MVTOScheduler(Scheduler):
    """Reed's multiversion timestamp ordering."""

    name = "mvto-reed"
    multiversion = True

    def __init__(self, store: MVStore | None = None):
        super().__init__()
        self.store = store if store is not None else MVStore()
        self._ts_counter = 0
        self._waiting = WaitList()

    # -- lifecycle --------------------------------------------------------------

    def _on_begin(self, txn: Transaction) -> None:
        # No transaction classes: everyone gets a timestamp.
        self._ts_counter += 1
        txn.tn = self._ts_counter
        txn.sn = txn.tn

    def read(self, txn: Transaction, key: Hashable) -> OpFuture:
        txn.require_active()
        # Read-only transactions go through the very same synchronization —
        # the overhead the paper's mechanism eliminates.
        self.counters.note_cc_interaction(txn, "ts-read")
        obj = self.store.object(key)
        result = OpFuture(label=("r{}[{}]", txn.txn_id, key))
        ts = txn.tn

        def step() -> bool:
            version = obj.version_leq(ts)
            if version.pending and version.creator_txn_id != txn.txn_id:
                return False
            # Synchronization write: the read mutates shared timestamp state.
            self.counters.note_sync_write(txn, "r_ts")
            if ts > version.r_ts:
                version.r_ts = ts
            if txn.is_read_only:
                version.r_ts_ro = max(version.r_ts_ro, ts)
            else:
                version.r_ts_rw = max(version.r_ts_rw, ts)
            self._note_read(txn, key, version.tn)
            result.resolve(version.value)
            return True

        self._waiting.attempt(txn, key, result, step, self.counters, "pending-write")
        return result

    def write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        txn.require_active()
        self.counters.note_cc_interaction(txn, "ts-write")
        obj = self.store.object(key)
        result = OpFuture(label=("w{}[{}]", txn.txn_id, key))
        ts = txn.tn

        def step() -> bool:
            if key in txn.write_set:
                own = obj.find(ts)
                assert own is not None and own.pending
                own.value = value
                txn.record_write(key, value)
                result.resolve(None)
                return True
            predecessor = obj.version_leq(ts)
            if predecessor.pending and predecessor.creator_txn_id != txn.txn_id:
                return False  # its fate (and final r_ts) is undecided
            if predecessor.r_ts > ts:
                # Some younger transaction read the predecessor: this write
                # would slide in beneath that read.  Attribute the rejection:
                # without read-only readers it would not have happened iff
                # only the read-only ceiling exceeds the writer's timestamp.
                only_ro_to_blame = (
                    predecessor.r_ts_ro > ts and predecessor.r_ts_rw <= ts
                )
                self._do_abort(
                    txn, AbortReason.TIMESTAMP_REJECTED, caused_by_readonly=only_ro_to_blame
                )
                result.fail(
                    TransactionAborted(
                        txn.txn_id,
                        AbortReason.TIMESTAMP_REJECTED,
                        caused_by_readonly=only_ro_to_blame,
                    )
                )
                return True
            self.store.place_pending(key, ts, value, creator_txn_id=txn.txn_id)
            self._note_write(txn, key, value)
            result.resolve(None)
            return True

        self._waiting.attempt(txn, key, result, step, self.counters, "pending-write")
        return result

    def commit(self, txn: Transaction) -> OpFuture:
        txn.require_active()
        result = OpFuture(label=("commit T{}", txn.txn_id))
        for key in txn.write_set:
            self.store.commit_pending(key, txn.tn)
        self._complete_commit(txn)
        result.resolve(None)
        self._waiting.wake(txn.write_set.keys())
        return result

    def abort(self, txn: Transaction, reason: AbortReason = AbortReason.USER_REQUESTED) -> None:
        if txn.is_finished:
            return
        self._do_abort(txn, reason)

    def _do_abort(
        self, txn: Transaction, reason: AbortReason, caused_by_readonly: bool = False
    ) -> None:
        for key in txn.write_set:
            self.store.discard_pending(key, txn.tn)
        self._complete_abort(txn, reason, caused_by_readonly)
        self._waiting.drop_transaction(txn)
        self._waiting.wake(txn.write_set.keys())
