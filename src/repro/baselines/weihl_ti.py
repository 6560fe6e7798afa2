"""Weihl's "timestamps chosen at initiation" protocol — baseline reconstruction.

The paper (Section 2) describes ref [17]'s protocol only in outline: it is
"similar to the multiversion two-phase locking algorithm [7]", needs no
completed transaction list, but "a read-only transaction has to perform
synchronization actions with a concurrent read-write transaction to avoid
inconsistent views.  The synchronization is performed on timestamps
associated with the objects, and in some cases, this may lead to a race
condition where neither transaction may proceed with useful work."

**Reconstruction (documented substitution).**  We implement the natural
protocol matching that outline:

* every transaction — read-only included — draws a timestamp from a global
  counter at *initiation*;
* read-write transactions run strict 2PL; at commit they must install their
  versions at a timestamp consistent with every timestamp-based decision
  already taken: larger than each written object's latest version timestamp,
  larger than each written object's *read floor* (raised by read-only
  readers), and larger than the versions they read.  When the initiation
  timestamp no longer qualifies, the transaction must **re-timestamp** from
  the counter and re-check — the writer's half of the race
  (``weihl.rw_retimestamp``);
* a read-only transaction reading ``x`` first raises ``x``'s read floor to
  its timestamp — the synchronization action — and, if a write-locked
  ``x`` has a concurrent writer whose tentative timestamp is at or below the
  reader's, it must wait for that writer to finish before it can know which
  version to read — the reader's half of the race (``weihl.ro_sync``).

Both halves are counted, quantifying the overhead the paper contrasts with
its zero-interaction read-only transactions (experiment EXP-K).
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.cc.two_phase import StrictTwoPhaseLocking
from repro.cc.waitlist import WaitList
from repro.core.futures import OpFuture, resolved
from repro.core.interface import Scheduler
from repro.core.transaction import Transaction
from repro.errors import AbortReason, ProtocolError
from repro.storage.mvstore import MVStore


class WeihlTIScheduler(StrictTwoPhaseLocking, Scheduler):
    """Timestamps-at-initiation multiversion protocol (after Weihl)."""

    name = "weihl-ti"
    multiversion = True

    def __init__(self, store: MVStore | None = None, victim_policy: str = "requester"):
        super().__init__()
        self.store = store if store is not None else MVStore()
        self.locks = self._build_locks(victim_policy)
        self._ts_counter = 0
        #: Read floors per object: largest read-only timestamp that has read
        #: the object; writers must finish above the floor.
        self._read_floor: dict[Hashable, int] = {}
        #: Active writers per key: txn_id -> tentative timestamp.
        self._tentative: dict[Hashable, dict[int, int]] = {}
        self._waiting = WaitList()

    def _next_ts(self) -> int:
        self._ts_counter += 1
        return self._ts_counter

    # -- lifecycle ----------------------------------------------------------------

    def _on_begin(self, txn: Transaction) -> None:
        txn.tn = self._next_ts()  # initiation timestamp, possibly revised
        txn.sn = txn.tn

    # -- read-only side ----------------------------------------------------------------

    def _ro_read(self, txn: Transaction, key: Hashable) -> OpFuture:
        result = OpFuture(label=("r{}[{}]", txn.txn_id, key))
        ts = int(txn.sn)
        # Synchronization action: raise the object's read floor so no writer
        # can later install a version at or below our timestamp.  This is a
        # concurrency-control interaction — exactly what the paper's own
        # read-only transactions never perform.
        self.counters.note_cc_interaction(txn, "read-floor")
        self.counters.note_sync_write(txn, "read-floor")
        if self._read_floor.get(key, 0) < ts:
            self._read_floor[key] = ts

        def step() -> bool:
            # Race check: a concurrent writer whose tentative timestamp is at
            # or below ours might install a version we would have to read.
            writers = self._tentative.get(key, {})
            if any(tent <= ts for tent in writers.values()):
                return False
            version = self.store.object(key).committed_version_leq(ts)
            self._note_read(txn, key, version.tn)
            result.resolve(version.value)
            return True

        self._waiting.attempt(txn, key, result, step, self.counters, "writer-sync")
        if result.pending:
            self.counters.bump("weihl.ro_sync")
        return result

    # -- read-write side -----------------------------------------------------------------

    def read(self, txn: Transaction, key: Hashable) -> OpFuture:
        txn.require_active()
        if txn.is_read_only:
            return self._ro_read(txn, key)
        return self._locked_read(txn, key)

    def write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        txn.require_active()
        if txn.is_read_only:
            raise ProtocolError(f"transaction {txn.txn_id} is read-only")
        return self._locked_write(txn, key, value)

    def _note_write(self, txn: Transaction, key: Hashable, value: Any) -> None:
        super()._note_write(txn, key, value)
        # Staging a write publishes the tentative timestamp: read-only
        # readers at or above it must now synchronize with us.
        self._tentative.setdefault(key, {})[txn.txn_id] = int(txn.tn)

    def commit(self, txn: Transaction) -> OpFuture:
        txn.require_active()
        if txn.is_read_only:
            self._complete_commit(txn)
            return resolved(None, label=("commit RO T{}", txn.txn_id))
        # Find a commit timestamp consistent with all floors and versions.
        ts = int(txn.tn)
        while not self._timestamp_admissible(txn, ts):
            ts = self._next_ts()
            self.counters.bump("weihl.rw_retimestamp")
        txn.tn = ts
        # The commit fixes this transaction's reads at timestamp ts: raise
        # the read floor of every key it read so no later writer can install
        # a version beneath those reads.  (Without this, a writer whose
        # initiation timestamp is older can commit "into the past" of a
        # committed reader — a serializability violation found by the
        # random-interleaving stress tests.)
        for key, read_tn in txn.read_set.items():
            if read_tn >= 0 and self._read_floor.get(key, 0) < ts:
                self._read_floor[key] = ts
        for key, value in txn.write_set.items():
            self.store.install(key, ts, value)
        self._clear_tentative(txn)
        self._complete_commit(txn)  # record before lock release wakes readers
        self.locks.release_all(txn.txn_id)
        self._waiting.wake(txn.write_set.keys())
        return resolved(None, label=("commit T{}", txn.txn_id))

    def _timestamp_admissible(self, txn: Transaction, ts: int) -> bool:
        for key in txn.write_set:
            if self._read_floor.get(key, 0) >= ts:
                return False
            if self.store.object(key).latest().tn >= ts:
                return False
        for key, read_tn in txn.read_set.items():
            if read_tn >= 0 and read_tn > ts:  # pragma: no cover - ts monotone
                return False
        return True

    def abort(self, txn: Transaction, reason: AbortReason = AbortReason.USER_REQUESTED) -> None:
        if txn.is_finished:
            return
        if not txn.is_read_only:
            self._clear_tentative(txn)
            self.locks.release_all(txn.txn_id)
        self._complete_abort(txn, reason)
        self._waiting.drop_transaction(txn)
        if not txn.is_read_only:
            self._waiting.wake(txn.write_set.keys())

    # -- plumbing ---------------------------------------------------------------------------

    def _clear_tentative(self, txn: Transaction) -> None:
        for key in txn.write_set:
            writers = self._tentative.get(key)
            if writers is not None:
                writers.pop(txn.txn_id, None)
                if not writers:
                    del self._tentative[key]
