"""VC + optimistic concurrency control with *forward* validation.

A fourth concurrency-control component under the same version-control
module, rounding out the OCC design space: where
:class:`~repro.protocols.vc_optimistic.VCOCCScheduler` validates a committer
*backward* against already-committed writes (first committer wins, loser
restarts), this subclass keeps its read phase and write phase and validates
*forward* against the read sets of still-active read-write transactions:

* at ``end(T)``, every active read-write transaction whose read set
  intersects T's write set is **wounded** (aborted) before T installs —
  T's commit never waits and never fails;
* a wounded transaction discovers its fate at its next operation, which
  returns a failed future with ``AbortReason.WOUNDED`` (so drivers retry it
  like any protocol abort).

Soundness sketch: by induction over commits, no active transaction ever
holds a stale read — any commit that would have made a read stale wounded
the reader at that instant.  So at validation time T's own reads are
current, and registering at the commit point yields the same tn-ordered
MVSG edges as the backward variant.  Read-only transactions, as always,
are invisible to all of this and can never be wounded.

The trade, measurable with the experiment harness: backward validation
wastes the *loser's entire execution* after the fact; forward validation
kills readers *early* (less wasted work per abort) but can wound
transactions that would never have committed anyway.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.futures import OpFuture, failed
from repro.core.transaction import Transaction
from repro.core.version_control import VersionControl
from repro.errors import AbortReason, TransactionAborted
from repro.protocols.vc_optimistic import VCOCCScheduler
from repro.storage.mvstore import MVStore


class VCOCCForwardScheduler(VCOCCScheduler):
    """Forward-validation (wound-the-readers) optimistic scheduler."""

    name = "vc-occ-fwd"

    def __init__(
        self,
        store: MVStore | None = None,
        version_control: VersionControl | None = None,
    ):
        super().__init__(store, version_control)
        self._active_rw: dict[int, Transaction] = {}

    # -- wounded-transaction interception ---------------------------------------

    def _wounded_future(self, txn: Transaction, label: tuple) -> OpFuture | None:
        if txn.state.value == "aborted" and txn.abort_reason is AbortReason.WOUNDED:
            return failed(
                TransactionAborted(txn.txn_id, AbortReason.WOUNDED), label=label
            )
        return None

    def read(self, txn: Transaction, key: Hashable) -> OpFuture:
        wounded = self._wounded_future(txn, ("r{}[{}]", txn.txn_id, key))
        if wounded is not None:
            return wounded
        return super().read(txn, key)

    def write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        wounded = self._wounded_future(txn, ("w{}[{}]", txn.txn_id, key))
        if wounded is not None:
            return wounded
        return super().write(txn, key, value)

    def commit(self, txn: Transaction) -> OpFuture:
        wounded = self._wounded_future(txn, ("commit T{}", txn.txn_id))
        if wounded is not None:
            return wounded
        return super().commit(txn)

    # -- forward validation (read phase and write phase are backward OCC's) -----------

    def _rw_begin(self, txn: Transaction) -> None:
        super()._rw_begin(txn)
        self._active_rw[txn.txn_id] = txn

    def _rw_commit(self, txn: Transaction) -> OpFuture:
        self.counters.note_cc_interaction(txn, "validate-forward")
        self._active_rw.pop(txn.txn_id, None)
        # Wound every active read-write transaction that read something we
        # are about to overwrite.
        if txn.write_set:
            victims = [
                other
                for other in self._active_rw.values()
                if any(key in other.read_set for key in txn.write_set)
            ]
            for victim in victims:
                self.counters.bump("occ.wounded")
                self._rw_abort(victim, AbortReason.WOUNDED)
        # Install: the committer itself never fails.
        return self._write_phase(txn)

    def _rw_abort(self, txn: Transaction, reason: AbortReason) -> None:
        self._active_rw.pop(txn.txn_id, None)
        super()._rw_abort(txn, reason)
