"""VC + 2PL over the multi-granularity lock manager.

The modularity thesis, exercised from the concurrency-control side: this
scheduler replaces the flat S/X lock manager of
:class:`~repro.protocols.vc_two_phase_locking.VC2PLScheduler` with the
intention-locking hierarchy of :mod:`repro.cc.granular` — and *nothing else
changes*: the same :class:`VersionControl` module, the same read-only path,
the same registration-at-lock-point commit, the same correctness oracle.

What the hierarchy buys read-write transactions is cheap whole-database
scans: :meth:`scan` takes a single S lock at the root instead of an S lock
per key.  (Read-only transactions never needed help — they scan lock-free
at their snapshot via :meth:`snapshot_scan` on any VC scheduler.)
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.cc.granular import GranularLockManager, GranularMode
from repro.core.futures import OpFuture, resolved
from repro.core.transaction import Transaction
from repro.errors import ProtocolError
from repro.protocols.vc_two_phase_locking import VC2PLScheduler

ROOT: tuple = ("db",)


class VCGranular2PLScheduler(VC2PLScheduler):
    """Figure 4 semantics over intention locks.

    Only the lock manager and the scans are defined here; begin, read,
    write, abort and the ``end(T)`` sequence are the base scheduler's.
    """

    name = "vc-2pl-granular"

    def _build_locks(self, victim_policy: str) -> GranularLockManager:
        return GranularLockManager(
            victim_policy=victim_policy,
            on_block=self._note_block,
            on_deadlock=self._note_deadlock,
        )

    def _lock(self, txn: Transaction, key: Hashable, exclusive: bool) -> OpFuture:
        return self.locks.acquire(
            txn.txn_id,
            (*ROOT, key),
            GranularMode.X if exclusive else GranularMode.S,
            deadline=txn.deadline,
        )

    # -- the granularity payoff ------------------------------------------------

    def scan(self, txn: Transaction) -> OpFuture:
        """Read every object under one root S lock (read-write path).

        Resolves with ``{key: value}`` over the latest committed versions.
        A per-key implementation would acquire N locks; this takes one.
        """
        txn.require_active()
        if txn.is_read_only:
            return self.snapshot_scan(txn)
        self.counters.note_cc_interaction(txn, "scan-lock")
        result = OpFuture(label=("scan T{}", txn.txn_id))
        lock = self.locks.acquire(
            txn.txn_id, ROOT, GranularMode.S, deadline=txn.deadline
        )

        def _locked(done: OpFuture) -> None:
            if done.failed:
                self._deadlock_abort(txn, done.error, result)
                return
            values: dict[Hashable, Any] = {}
            for key in self.store.keys():
                version = self.store.read_latest_committed(key)
                self._note_read(txn, key, version.tn)
                values[key] = version.value
            result.resolve(values)

        lock.add_callback(_locked)
        return result

    def snapshot_scan(self, txn: Transaction) -> OpFuture:
        """Read-only whole-database scan at the snapshot: no locks at all."""
        if not txn.is_read_only:
            raise ProtocolError("snapshot_scan is for read-only transactions")
        assert txn.sn is not None
        values: dict[Hashable, Any] = {}
        for key in self.store.keys():
            version = self.store.read_snapshot(key, txn.sn)
            self._note_read(txn, key, version.tn)
            values[key] = version.value
        return resolved(values, label=("snapshot scan T{}", txn.txn_id))
