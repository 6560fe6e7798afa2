"""Version control + optimistic concurrency control (paper refs [1, 2]).

The paper's version-control mechanism grew out of the authors' multiversion
optimistic protocol; this module is the clean re-integration the paper
advocates.  Read-write transactions run Kung–Robinson-style backward
validation over the multiversion store:

* **Read phase** — reads return the latest committed version, with the
  version number remembered in the read set; writes are staged privately.
  Nothing ever blocks.
* **Validation** (at ``end(T)``) — T is checked against every transaction
  that committed after T began: if any read key's current latest committed
  version differs from the version T read, T aborts.  Validation and the
  write phase form one atomic step in this cooperative model, which is the
  standard serial-validation critical section.
* **Write phase** — on success, ``VCregister`` fixes the serial order (the
  validation point plays the role of the lock point), versions are installed
  with number ``tn(T)``, and ``VCcomplete`` publishes them in serial order.

Read-only transactions need no validation at all — eliminating exactly the
overhead the authors' earlier protocol [1, 2] targeted — because the version
control mechanism serializes them at their start number.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.futures import OpFuture, failed, resolved
from repro.core.transaction import Transaction
from repro.core.vc_scheduler import VersionControlledScheduler
from repro.errors import AbortReason, ValidationError


class VCOCCScheduler(VersionControlledScheduler):
    """Version control combined with backward-validation OCC."""

    name = "vc-occ"
    multiversion = True

    # -- read-write hooks -----------------------------------------------------

    def _rw_begin(self, txn: Transaction) -> None:
        # Optimistic transactions carry no number until validation.
        txn.sn = None

    def _rw_read(self, txn: Transaction, key: Hashable) -> OpFuture:
        self.counters.note_cc_interaction(txn, "occ-read")
        if key in txn.write_set:
            self._note_read(txn, key, None)
            return resolved(txn.write_set[key], label=("r{}[{}]", txn.txn_id, key))
        version = self.store.read_latest_committed(key)
        self._note_read(txn, key, version.tn)
        return resolved(version.value, label=("r{}[{}_{}]", txn.txn_id, key, version.tn))

    def _rw_write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        self.counters.note_cc_interaction(txn, "occ-write")
        self._note_write(txn, key, value)
        return resolved(None, label=("w{}[{}]", txn.txn_id, key))

    def _rw_commit(self, txn: Transaction) -> OpFuture:
        # Backward validation: every key T read must still be current.
        self.counters.note_cc_interaction(txn, "validate")
        for key, read_tn in txn.read_set.items():
            if read_tn < 0:
                continue  # own staged write
            current = self.store.read_latest_committed(key)
            if current.tn != read_tn:
                error = ValidationError(
                    txn.txn_id,
                    conflicting_txn=current.tn,
                    detail=f"read {key!r} at version {read_tn}, now {current.tn}",
                )
                self._rw_abort(txn, AbortReason.VALIDATION_FAILED)
                return failed(error, label=("commit T{}", txn.txn_id))
        return self._write_phase(txn)

    def _write_phase(self, txn: Transaction) -> OpFuture:
        # Validation point == serialization point: register, install, publish.
        self.counters.note_vc_interaction(txn, "register")
        tn = self.vc.vc_register(txn)
        for key, value in txn.write_set.items():
            self.store.install(key, tn, value)
        self.counters.note_vc_interaction(txn, "complete")
        self.vc.vc_complete(txn)
        self._complete_commit(txn)
        return resolved(None, label=("commit T{}", txn.txn_id))

    def _rw_abort(self, txn: Transaction, reason: AbortReason) -> None:
        # Nothing was shared: staged writes vanish with the descriptor.
        self._complete_abort(txn, reason)
