"""Version control + strict two-phase locking — paper Figure 4.

Read-write transactions run textbook strict 2PL against the *latest* version
of each object, as if the database were single-version:

* ``begin(T)`` — nothing; ``sn(T) = infinity`` "for uniformity" (a locked
  read always sees the latest version).
* ``read(x)`` — acquire an S lock (may wait), then read the largest version;
  with the lock held that version is committed and its writer's lock point
  precedes T's.
* ``write(y)`` — acquire an X lock (may wait), then create the new version
  privately "with version phi": the transaction has no number yet, and no
  one can see the version until the lock is released, which happens only
  after the lock point when the number exists.
* ``end(T)`` — ``VCregister`` (this *is* the lock point: the moment the
  serial order is fixed), perform the database updates with version number
  ``tn(T)``, clear locks, ``VCcomplete``.  :meth:`VC2PLScheduler._rw_commit`
  is the one place this sequence is written; the logging and replicated
  variants plug a durability gate into it and change nothing else.

Deadlocks are possible among executing read-write transactions and are
resolved by the lock manager; a transaction that has registered with version
control holds no pending requests, so — as the paper argues in Section 4.4 —
version control is never entangled in a deadlock cycle.  Read-only
transactions never touch the lock manager at all.
"""

from __future__ import annotations

from typing import Hashable

from repro.cc.locks import LockMode
from repro.cc.two_phase import StrictTwoPhaseLocking
from repro.core.futures import OpFuture, resolved
from repro.core.transaction import SN_INFINITY, Transaction
from repro.core.vc_scheduler import VersionControlledScheduler
from repro.core.version_control import VersionControl
from repro.errors import AbortReason
from repro.storage.mvstore import MVStore


class VC2PLScheduler(StrictTwoPhaseLocking, VersionControlledScheduler):
    """The paper's Figure 4 protocol."""

    name = "vc-2pl"
    multiversion = True

    def __init__(
        self,
        store: MVStore | None = None,
        version_control: VersionControl | None = None,
        victim_policy: str = "requester",
    ):
        super().__init__(store, version_control)
        self.locks = self._build_locks(victim_policy)

    def _lock(self, txn: Transaction, key: Hashable, exclusive: bool) -> OpFuture:
        return self.locks.acquire(
            txn.txn_id,
            key,
            LockMode.EXCLUSIVE if exclusive else LockMode.SHARED,
            deadline=txn.deadline,
        )

    # -- read-write hooks ----------------------------------------------------

    def _rw_begin(self, txn: Transaction) -> None:
        txn.sn = SN_INFINITY

    # The execution phase is textbook strict 2PL, as if the database were
    # single-version: the shared one, under the names the VC base calls.
    _rw_read = StrictTwoPhaseLocking._locked_read
    _rw_write = StrictTwoPhaseLocking._locked_write

    def _rw_commit(self, txn: Transaction) -> OpFuture:
        """``end(T)`` — the one lock-based commit sequence (Figure 4).

        fence -> register -> durability gate -> install -> record ->
        release -> ``VCcomplete`` -> ack.  Every lock-based scheduler runs
        exactly this; a subclass supplies only the gate (and, for a leased
        primary, the fence in front of it).
        """
        refusal = self._commit_fence(txn)
        if refusal is not None:
            return refusal
        # The transaction has finished its execution phase; every lock it
        # needs is held, so registering is its lock point.
        self.counters.note_vc_interaction(txn, "register")
        tn = self.vc.vc_register(txn)
        deferred = self._durability_gate(txn, tn)
        if deferred is not None:
            return deferred  # the gate runs _commit_tail once tn is durable
        self._commit_tail(txn, tn)
        return resolved(None, label=("commit T{}", txn.txn_id))

    def _commit_fence(self, txn: Transaction) -> OpFuture | None:
        """Refuse the commit before its commit point: the abort performed
        and the failed future to hand back, or None to let it proceed."""
        return None

    def _durability_gate(self, txn: Transaction, tn: int) -> OpFuture | None:
        """Make the commit of ``txn`` under ``tn`` durable.

        Returning None means it is durable now and the sequence continues
        inline.  A gate that must wait (a majority ack) returns the
        session's commit future instead and calls :meth:`_commit_tail`
        itself when the wait ends.  No log here: nothing to do.
        """
        return None

    def _commit_tail(self, txn: Transaction, tn: int) -> None:
        """Everything after the durability point, in the paper's order."""
        # Perform database updates with version number tn(T).
        for key, value in txn.write_set.items():
            self.store.install(key, tn, value)
        # The transaction is now durably committed: record it before
        # releasing locks, since lock release immediately re-drives blocked
        # readers onto the freshly installed versions.
        self._complete_commit(txn)
        # Clear locks, then make the updates visible in serial order.
        self.locks.release_all(txn.txn_id)
        self.counters.note_vc_interaction(txn, "complete")
        self.vc.vc_complete(txn)

    def _rw_abort(self, txn: Transaction, reason: AbortReason) -> None:
        # Staged writes are private; discarding them destroys the versions.
        if self.vc.is_registered(txn):
            # Only reachable if an external abort lands between register and
            # complete (our commit is atomic, but subclasses may split it).
            self.counters.note_vc_interaction(txn, "discard")
            self.vc.vc_discard(txn)
        self.locks.release_all(txn.txn_id)
        self._complete_abort(txn, reason)

    # -- deadlock plumbing ---------------------------------------------------------

    def _note_deadlock(self, victim: int, cycle: list[int]) -> None:
        super()._note_deadlock(victim, cycle)
        # The paper's Section 4.4 claim, enforced as a runtime check: no
        # cycle member is registered with version control.
        for member in set(cycle):
            txn = self._active.get(member)
            if txn is not None and self.vc.is_registered(txn):  # pragma: no cover
                raise AssertionError(
                    f"transaction {member} is past its lock point yet deadlocked"
                )
