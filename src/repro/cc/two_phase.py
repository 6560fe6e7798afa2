"""The strict two-phase-locking execution phase, written once.

Every lock-based scheduler — the paper's Figure 4 protocol and the three
2PL baselines — runs read-write operations the same way: an S lock, then
the transaction's own staged write or the latest committed value; an X
lock, then a private staged write.  :class:`StrictTwoPhaseLocking` is that
phase as a scheduler mixin.  What a scheduler may vary is a method it
overrides, never a branch here: how the lock is requested (:meth:`_lock`),
where the committed value comes from (:meth:`_read_committed`), and what a
deadlock callback checks beyond counting (:meth:`_note_deadlock`).  When
and how locks are released belongs to each scheduler's commit sequence.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.cc.lock_manager import LockManager
from repro.cc.locks import LockMode
from repro.core.futures import OpFuture
from repro.core.transaction import Transaction


class StrictTwoPhaseLocking:
    """Mixin for :class:`~repro.core.interface.Scheduler` subclasses with a
    ``store`` and a ``locks`` manager built by :meth:`_build_locks`."""

    def _build_locks(self, victim_policy: str) -> Any:
        """The concurrency-control component (flat S/X locks here)."""
        return LockManager(
            victim_policy=victim_policy,
            on_block=self._note_block,
            on_deadlock=self._note_deadlock,
        )

    def _lock(self, txn: Transaction, key: Hashable, exclusive: bool) -> OpFuture:
        return self.locks.acquire(
            txn.txn_id, key, LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
        )

    def _note_deadlock(self, victim: int, cycle: list[int]) -> None:
        self.counters.bump("deadlock")

    def _read_committed(self, key: Hashable) -> tuple[Any, int]:
        """``(value, writer's tn)`` of the latest committed state of ``key``;
        with the S lock held it is the largest version, and committed."""
        version = self.store.read_latest_committed(key)
        return version.value, version.tn

    def _locked_read(self, txn: Transaction, key: Hashable) -> OpFuture:
        self.counters.note_cc_interaction(txn, "r-lock")
        result = OpFuture(label=("r{}[{}]", txn.txn_id, key))

        def _locked(done: OpFuture) -> None:
            if done.failed:
                self._deadlock_abort(txn, done.error, result)
            elif key in txn.write_set:
                # Own staged write: visible to the writer itself.
                self._note_read(txn, key, None)
                result.resolve(txn.write_set[key])
            else:
                value, tn = self._read_committed(key)
                self._note_read(txn, key, tn)
                result.resolve(value)

        self._lock(txn, key, exclusive=False).add_callback(_locked)
        return result

    def _locked_write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        self.counters.note_cc_interaction(txn, "w-lock")
        result = OpFuture(label=("w{}[{}]", txn.txn_id, key))

        def _locked(done: OpFuture) -> None:
            if done.failed:
                self._deadlock_abort(txn, done.error, result)
            else:
                # "create y_j with version phi" — staged privately until
                # commit; no one can see it while the X lock is held.
                self._note_write(txn, key, value)
                result.resolve(None)

        self._lock(txn, key, exclusive=True).add_callback(_locked)
        return result
