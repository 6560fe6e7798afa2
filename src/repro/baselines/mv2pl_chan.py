"""Chan et al.'s multiversion two-phase locking — baseline (paper Section 2).

Read-write transactions run strict 2PL exactly as in a single-version system
and, at commit, receive a commit timestamp from a global counter, install
their versions under it, and are appended to the global **completed
transaction list (CTL)**.

Read-only transactions carry two pieces of extra state, whose cost is the
paper's first criticism of this design:

* a *start timestamp* taken from the counter at begin;
* a private *copy of the CTL* as of begin.

A read-only read of ``x`` must locate the version with the largest write
timestamp below the start timestamp **whose creator appears in the CTL
copy**, scanning backward through the version chain and probing the copy at
each step — "cumbersome and complex" in the paper's words.  The scheduler
counts CTL copy sizes and membership probes (experiment EXP-F).

The CTL here is an ever-growing set, as in the original description; Chan et
al. discuss pruning heuristics, but pruning needs its own machinery — which
is exactly the maintenance burden being measured.

The paper's second criticism — that the distributed variant cannot guarantee
*global* serializability of read-only transactions and needs a-priori
knowledge of read sites — is reproduced by
:class:`repro.distributed.dmv2pl.DistributedMV2PL`.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.cc.two_phase import StrictTwoPhaseLocking
from repro.core.futures import OpFuture, resolved
from repro.core.interface import Scheduler
from repro.core.transaction import Transaction
from repro.errors import AbortReason, ProtocolError, VersionNotFound
from repro.storage.mvstore import MVStore


class _Snapshot:
    """``txn.private`` of a read-only transaction: its copy of the CTL."""

    __slots__ = ("ctl_copy",)

    def __init__(self, ctl_copy: set[int]):
        self.ctl_copy = ctl_copy

    def release(self) -> None:
        self.ctl_copy = set()


class MV2PLScheduler(StrictTwoPhaseLocking, Scheduler):
    """Chan et al.'s CS-2PL multiversion protocol with a CTL."""

    name = "mv2pl-chan"
    multiversion = True

    def __init__(self, store: MVStore | None = None, victim_policy: str = "requester"):
        super().__init__()
        self.store = store if store is not None else MVStore()
        self.locks = self._build_locks(victim_policy)
        self._commit_counter = 0
        #: The completed transaction list: commit timestamps of all committed
        #: read-write transactions, in commit order.
        self.ctl: set[int] = {0}  # the initializing transaction is completed

    # -- lifecycle -----------------------------------------------------------------

    def _on_begin(self, txn: Transaction) -> None:
        if txn.is_read_only:
            # Start timestamp + CTL copy: the protocol's RO-side baggage.
            txn.sn = self._commit_counter + 1  # versions with tn < sn eligible
            txn.private = _Snapshot(set(self.ctl))
            self.counters.note_cc_interaction(txn, "ctl-copy")
            self.counters.bump("ctl.copied_entries", len(self.ctl))

    # -- read-only execution -----------------------------------------------------------

    def _ro_read(self, txn: Transaction, key: Hashable) -> OpFuture:
        assert txn.sn is not None
        ctl_copy = txn.private.ctl_copy
        obj = self.store.object(key)
        # Scan backward from the largest version below the start timestamp
        # until the creator is in the CTL copy.
        candidates = [v for v in obj.versions() if v.tn < txn.sn]
        for version in reversed(candidates):
            self.counters.bump("ctl.membership_checks")
            if version.tn in ctl_copy:
                self._note_read(txn, key, version.tn)
                return resolved(version.value, label=("r{}[{}_{}]", txn.txn_id, key, version.tn))
        raise VersionNotFound(key, txn.sn)  # pragma: no cover - v0 always in CTL

    # -- operations ---------------------------------------------------------------------

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

    def commit(self, txn: Transaction) -> OpFuture:
        txn.require_active()
        if txn.is_read_only:
            self._complete_commit(txn)
            return resolved(None, label=("commit RO T{}", txn.txn_id))
        # Commit timestamp, version install, CTL append, lock release.
        self._commit_counter += 1
        txn.tn = self._commit_counter
        for key, value in txn.write_set.items():
            self.store.install(key, txn.tn, value)
        self.ctl.add(txn.tn)
        self.counters.bump("ctl.appends")
        self._complete_commit(txn)  # record before lock release wakes readers
        self.locks.release_all(txn.txn_id)
        return resolved(None, label=("commit T{}", txn.txn_id))

    def abort(self, txn: Transaction, reason: AbortReason = AbortReason.USER_REQUESTED) -> None:
        if txn.is_finished:
            return
        if not txn.is_read_only:
            self.locks.release_all(txn.txn_id)
        self._complete_abort(txn, reason)

    # -- plumbing ------------------------------------------------------------------------
