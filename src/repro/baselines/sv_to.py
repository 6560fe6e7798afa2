"""Single-version timestamp ordering — baseline.

Basic TO over a single-version store with deferred updates and strictness:

* every transaction (read-only included) draws a timestamp at begin;
* ``read(x)`` is rejected — the reader aborts — when a younger write has
  already committed (``w_ts(x) > ts``), and blocks behind a *prewrite* by an
  older transaction;
* ``write(x)`` is rejected when a younger read or write got there first
  (``r_ts(x) > ts`` or ``w_ts(x) > ts``), blocks behind an older prewrite,
  and otherwise installs a prewrite marker; the value lands at commit.

The contrast the paper draws: without versions, even read-only transactions
can be rejected and restarted — here observable as ``abort.ro`` counts.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.cc.waitlist import WaitList
from repro.core.futures import OpFuture, resolved
from repro.core.interface import Scheduler
from repro.core.transaction import Transaction
from repro.errors import AbortReason, ProtocolError, TransactionAborted
from repro.storage.svstore import SVStore


class _KeyState:
    """Per-key timestamp bookkeeping."""

    __slots__ = ("r_ts", "w_ts", "prewriter_ts", "prewriter_txn")

    def __init__(self) -> None:
        self.r_ts = 0
        self.w_ts = 0
        self.prewriter_ts: int | None = None
        self.prewriter_txn: int | None = None


class SVTOScheduler(Scheduler):
    """Strict single-version timestamp ordering with deferred updates."""

    name = "sv-to"
    multiversion = False

    def __init__(self, store: SVStore | None = None):
        super().__init__()
        self.store = store if store is not None else SVStore()
        self._ts_counter = 0
        self._state: dict[Hashable, _KeyState] = {}
        self._waiting = WaitList()

    def _key_state(self, key: Hashable) -> _KeyState:
        state = self._state.get(key)
        if state is None:
            state = _KeyState()
            self._state[key] = state
        return state

    # -- lifecycle --------------------------------------------------------------

    def _on_begin(self, txn: Transaction) -> None:
        self._ts_counter += 1
        txn.tn = self._ts_counter
        txn.sn = txn.tn

    def read(self, txn: Transaction, key: Hashable) -> OpFuture:
        txn.require_active()
        self.counters.note_cc_interaction(txn, "ts-read")
        state = self._key_state(key)
        result = OpFuture(label=("r{}[{}]", txn.txn_id, key))
        ts = txn.tn

        def step() -> bool:
            if key in txn.write_set:
                self._note_read(txn, key, None)
                result.resolve(txn.write_set[key])
                return True
            if state.w_ts > ts:
                # The value the reader should see is gone: restart.  Note
                # this hits read-only transactions too.
                self._do_abort(txn, AbortReason.TIMESTAMP_REJECTED)
                result.fail(TransactionAborted(txn.txn_id, AbortReason.TIMESTAMP_REJECTED))
                return True
            if state.prewriter_ts is not None and state.prewriter_ts < ts:
                return False  # strictness: wait for the older writer's fate
            if state.r_ts < ts:
                state.r_ts = ts
            self.counters.note_sync_write(txn, "r_ts")
            value, writer_tn = self.store.read(key)
            self._note_read(txn, key, writer_tn)
            result.resolve(value)
            return True

        self._waiting.attempt(txn, key, result, step, self.counters, "prewrite")
        return result

    def write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        txn.require_active()
        if txn.is_read_only:
            raise ProtocolError(f"transaction {txn.txn_id} is read-only")
        self.counters.note_cc_interaction(txn, "ts-write")
        state = self._key_state(key)
        result = OpFuture(label=("w{}[{}]", txn.txn_id, key))
        ts = txn.tn

        def step() -> bool:
            if key in txn.write_set:
                txn.record_write(key, value)
                result.resolve(None)
                return True
            if state.r_ts > ts or state.w_ts > ts:
                self._do_abort(txn, AbortReason.TIMESTAMP_REJECTED)
                result.fail(TransactionAborted(txn.txn_id, AbortReason.TIMESTAMP_REJECTED))
                return True
            if state.prewriter_ts is not None:
                if state.prewriter_ts < ts:
                    return False  # queue behind the older prewrite
                # A younger prewrite is already in place: our write is late.
                self._do_abort(txn, AbortReason.TIMESTAMP_REJECTED)
                result.fail(TransactionAborted(txn.txn_id, AbortReason.TIMESTAMP_REJECTED))
                return True
            state.prewriter_ts = ts
            state.prewriter_txn = txn.txn_id
            self._note_write(txn, key, value)
            result.resolve(None)
            return True

        self._waiting.attempt(txn, key, result, step, self.counters, "prewrite")
        return result

    def commit(self, txn: Transaction) -> OpFuture:
        txn.require_active()
        for key, value in txn.write_set.items():
            state = self._key_state(key)
            assert state.prewriter_txn == txn.txn_id
            state.prewriter_ts = None
            state.prewriter_txn = None
            if state.w_ts < txn.tn:
                state.w_ts = txn.tn
            self.store.apply(key, value, txn.tn)
        self._complete_commit(txn)
        self._waiting.wake(txn.write_set.keys())
        return resolved(None, label=("commit T{}", txn.txn_id))

    def abort(self, txn: Transaction, reason: AbortReason = AbortReason.USER_REQUESTED) -> None:
        if txn.is_finished:
            return
        self._do_abort(txn, reason)

    def _do_abort(self, txn: Transaction, reason: AbortReason) -> None:
        for key in txn.write_set:
            state = self._key_state(key)
            if state.prewriter_txn == txn.txn_id:
                state.prewriter_ts = None
                state.prewriter_txn = None
        self._complete_abort(txn, reason)
        self._waiting.drop_transaction(txn)
        self._waiting.wake(txn.write_set.keys())
