"""Single-version strict two-phase locking — baseline.

The no-multiversioning control: *every* transaction, read-only ones
included, acquires locks.  Read-only transactions therefore block behind
writers, delay writers, and participate in deadlocks — the costs the paper's
Section 1 motivates eliminating with multiple versions.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.cc.two_phase import StrictTwoPhaseLocking
from repro.core.futures import OpFuture, resolved
from repro.core.interface import Scheduler
from repro.core.transaction import Transaction
from repro.errors import AbortReason, ProtocolError
from repro.storage.svstore import SVStore


class SV2PLScheduler(StrictTwoPhaseLocking, Scheduler):
    """Strict 2PL over a single-version store; no transaction classes."""

    name = "sv-2pl"
    multiversion = False

    def __init__(self, store: SVStore | None = None, victim_policy: str = "requester"):
        super().__init__()
        self.store = store if store is not None else SVStore()
        self.locks = self._build_locks(victim_policy)
        self._tn_counter = 0

    def _on_begin(self, txn: Transaction) -> None:
        """No numbers, no classes: a transaction gets its tn at commit."""

    def _read_committed(self, key: Hashable) -> tuple[Any, int]:
        return self.store.read(key)

    def read(self, txn: Transaction, key: Hashable) -> OpFuture:
        txn.require_active()
        # Read-only transactions lock like everyone else.
        return self._locked_read(txn, key)

    def write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        txn.require_active()
        if txn.is_read_only:
            raise ProtocolError(f"transaction {txn.txn_id} is read-only")
        return self._locked_write(txn, key, value)

    def commit(self, txn: Transaction) -> OpFuture:
        txn.require_active()
        if txn.write_set:
            self._tn_counter += 1
            txn.tn = self._tn_counter
            for key, value in txn.write_set.items():
                self.store.apply(key, value, txn.tn)
        elif not txn.is_read_only:
            # A read-write transaction that happened not to write still needs
            # an identity in the recorded history.
            self._tn_counter += 1
            txn.tn = self._tn_counter
        self._complete_commit(txn)  # record before lock release wakes readers
        self.locks.release_all(txn.txn_id)
        return resolved(None, label=("commit T{}", txn.txn_id))

    def abort(self, txn: Transaction, reason: AbortReason = AbortReason.USER_REQUESTED) -> None:
        if txn.is_finished:
            return
        self.locks.release_all(txn.txn_id)
        self._complete_abort(txn, reason)
