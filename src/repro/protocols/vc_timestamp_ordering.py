"""Version control + timestamp ordering — paper Figure 3.

The serial order under timestamp ordering is fixed a priori, so a read-write
transaction registers with version control — acquiring its transaction
number — at ``begin``.  Thereafter:

* ``read(x)`` — set ``r-ts(x) = max(r-ts(x), tn(T))``, then return the
  version with the largest number ``<= sn(T) = tn(T)``.  If that version is
  a *pending* write by an older transaction, the read blocks until the
  writer commits (read it) or aborts (fall back to an older version).
* ``write(y)`` — rejected (transaction aborts) when ``r-ts(y) > tn(T)`` or
  ``w-ts(y) > tn(T)``; otherwise a pending version numbered ``tn(T)`` is
  created and ``w-ts(y)`` rises to ``tn(T)``.  A write is likewise blocked
  while an *older* transaction has a pending write on ``y``.
* ``end(T)`` — commit: pending versions become permanent, blocked requests
  on them are re-driven, and ``VCcomplete`` advances visibility when T is
  the oldest registrant.

Because read-only transactions never raise ``r-ts``, a write rejection can
never be caused by a read-only reader — the measurable difference from
Reed's MVTO (experiment EXP-B).
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.cc.waitlist import WaitList
from repro.core.futures import OpFuture
from repro.core.transaction import Transaction
from repro.core.vc_scheduler import VersionControlledScheduler
from repro.core.version_control import VersionControl
from repro.errors import AbortReason, TransactionAborted
from repro.storage.mvstore import MVStore


class VCTOScheduler(VersionControlledScheduler):
    """The paper's Figure 3 protocol."""

    name = "vc-to"
    multiversion = True

    def __init__(
        self,
        store: MVStore | None = None,
        version_control: VersionControl | None = None,
    ):
        super().__init__(store, version_control)
        #: Requests parked until their key's pending set changes.
        self._waiting = WaitList()

    # -- read-write hooks -----------------------------------------------------

    def _rw_begin(self, txn: Transaction) -> None:
        # Serial order is determined a priori: register now.
        self.counters.note_vc_interaction(txn, "register")
        self.vc.vc_register(txn)
        txn.sn = txn.tn

    def _rw_read(self, txn: Transaction, key: Hashable) -> OpFuture:
        self.counters.note_cc_interaction(txn, "ts-read")
        assert txn.tn is not None
        obj = self.store.object(key)
        # Figure 3: r-ts(x) <- MAX(r-ts(x), tn(T)), applied at request time so
        # no older write can slip between a blocked read and its version.
        if txn.tn > obj.max_r_ts:
            obj.max_r_ts = txn.tn
        result = OpFuture(label=("r{}[{}]", txn.txn_id, key))

        def step() -> bool:
            version = obj.version_leq(txn.sn)
            if version.pending and version.creator_txn_id != txn.txn_id:
                return False  # wait for the older writer's fate
            obj.note_read(version, txn.tn)
            self._note_read(txn, key, version.tn)
            result.resolve(version.value)
            return True

        self._waiting.attempt(txn, key, result, step, self.counters, "pending-write")
        return result

    def _rw_write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        self.counters.note_cc_interaction(txn, "ts-write")
        assert txn.tn is not None
        tn = txn.tn
        obj = self.store.object(key)
        result = OpFuture(label=("w{}[{}]", txn.txn_id, key))

        def step() -> bool:
            latest = obj.latest()
            if key in txn.write_set:
                # Rewrite of the transaction's own pending version.
                own = obj.find(tn)
                assert own is not None and own.pending
                own.value = value
                txn.record_write(key, value)
                result.resolve(None)
                return True
            # Figure 3 rejection check: r-ts(x) > tn(T) OR w-ts(x) > tn(T).
            if obj.max_r_ts > tn or latest.tn > tn:
                # Under version control this can never be the fault of a
                # read-only transaction: they do not raise r-ts.
                self._rw_abort(txn, AbortReason.TIMESTAMP_REJECTED)
                result.fail(
                    TransactionAborted(txn.txn_id, AbortReason.TIMESTAMP_REJECTED)
                )
                return True
            if latest.pending and latest.tn < tn:
                return False  # blocked behind an older pending write
            self.store.place_pending(key, tn, value, creator_txn_id=txn.txn_id)
            self._note_write(txn, key, value)
            result.resolve(None)
            return True

        self._waiting.attempt(txn, key, result, step, self.counters, "pending-write")
        return result

    def _rw_commit(self, txn: Transaction) -> OpFuture:
        result = OpFuture(label=("commit T{}", txn.txn_id))
        assert txn.tn is not None
        # Perform database updates: pending versions become permanent.
        for key in txn.write_set:
            self.store.commit_pending(key, txn.tn)
        self.counters.note_vc_interaction(txn, "complete")
        self.vc.vc_complete(txn)
        self._complete_commit(txn)
        result.resolve(None)
        # Clear pending read (and write) actions parked on our versions.
        self._waiting.wake(txn.write_set.keys())
        return result

    def _rw_abort(self, txn: Transaction, reason: AbortReason) -> None:
        assert txn.tn is not None
        for key in txn.write_set:
            self.store.discard_pending(key, txn.tn)
        self.counters.note_vc_interaction(txn, "discard")
        self.vc.vc_discard(txn)
        self._complete_abort(txn, reason)
        self._waiting.drop_transaction(txn)
        self._waiting.wake(txn.write_set.keys())
