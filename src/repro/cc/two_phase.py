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

An uncontended lock costs its table update: the lock manager returns an
immediate grant as a settled future, and the operation then acts inline
(:meth:`_read_held`, :meth:`_stage_write`) and returns a settled future of
its own.  A closure and a pending result future are built only when the
lock waits; the same two methods run when it is granted.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.cc.lock_manager import LockManager
from repro.cc.locks import LockMode
from repro.core.futures import OpFuture, OpStatus, resolved
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
        lock = self._lock(txn, key, exclusive=False)
        label = ("r{}[{}]", txn.txn_id, key)
        if lock._status is OpStatus.RESOLVED:  # granted at once: read now
            return resolved(self._read_held(txn, key), label)
        result = OpFuture(label)

        def _locked(done: OpFuture) -> None:
            if done.failed:
                self._deadlock_abort(txn, done.error, result)
            else:
                result.resolve(self._read_held(txn, key))

        lock.add_callback(_locked)
        return result

    def _read_held(self, txn: Transaction, key: Hashable) -> Any:
        """The read under a granted S lock: the transaction's own staged
        write if it has one (visible to the writer itself), else the latest
        committed value."""
        if key in txn.write_set:
            self._note_read(txn, key, None)
            return txn.write_set[key]
        value, tn = self._read_committed(key)
        self._note_read(txn, key, tn)
        return value

    def _locked_write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        self.counters.note_cc_interaction(txn, "w-lock")
        lock = self._lock(txn, key, exclusive=True)
        label = ("w{}[{}]", txn.txn_id, key)
        if lock._status is OpStatus.RESOLVED:  # granted at once: stage now
            self._stage_write(txn, key, value)
            return resolved(None, label)
        result = OpFuture(label)

        def _locked(done: OpFuture) -> None:
            if done.failed:
                self._deadlock_abort(txn, done.error, result)
            else:
                self._stage_write(txn, key, value)
                result.resolve(None)

        lock.add_callback(_locked)
        return result

    def _stage_write(self, txn: Transaction, key: Hashable, value: Any) -> None:
        """The write under a granted X lock.  "create y_j with version phi":
        staged privately until commit; no one can see it while the X lock
        is held."""
        self._note_write(txn, key, value)
