"""Unit tests for transaction descriptors."""

import pytest

from repro.core.transaction import SN_INFINITY, Transaction, TxnClass, TxnState
from repro.errors import AbortReason, ProtocolError, TransactionAborted


class TestClassification:
    def test_default_class_is_read_write(self):
        assert Transaction().txn_class is TxnClass.READ_WRITE

    def test_read_only_flags(self):
        t = Transaction(TxnClass.READ_ONLY)
        assert t.is_read_only
        assert not t.is_read_write

    def test_read_write_flags(self):
        t = Transaction()
        assert t.is_read_write
        assert not t.is_read_only

    def test_ids_are_unique_and_increasing(self):
        a, b = Transaction(), Transaction()
        assert b.txn_id > a.txn_id


class TestStateMachine:
    def test_starts_active(self):
        t = Transaction()
        assert t.state is TxnState.ACTIVE
        assert t.is_active
        assert not t.is_finished

    def test_commit_transition(self):
        t = Transaction()
        t.mark_committed()
        assert t.state is TxnState.COMMITTED
        assert t.is_finished

    def test_abort_records_reason(self):
        t = Transaction()
        t.mark_aborted(AbortReason.DEADLOCK_VICTIM)
        assert t.state is TxnState.ABORTED
        assert t.abort_reason is AbortReason.DEADLOCK_VICTIM

    def test_abort_caused_by_readonly_flag(self):
        t = Transaction()
        t.mark_aborted(AbortReason.TIMESTAMP_REJECTED, caused_by_readonly=True)
        assert t.abort_caused_by_readonly

    def test_double_abort_is_idempotent(self):
        t = Transaction()
        t.mark_aborted(AbortReason.USER_REQUESTED)
        t.mark_aborted(AbortReason.DEADLOCK_VICTIM)  # no-op
        assert t.abort_reason is AbortReason.USER_REQUESTED

    def test_abort_after_commit_rejected(self):
        t = Transaction()
        t.mark_committed()
        with pytest.raises(ProtocolError, match="already committed"):
            t.mark_aborted(AbortReason.USER_REQUESTED)

    def test_commit_after_abort_rejected(self):
        t = Transaction()
        t.mark_aborted(AbortReason.USER_REQUESTED)
        with pytest.raises(TransactionAborted) as info:
            t.mark_committed()
        assert info.value.reason is AbortReason.USER_REQUESTED

    def test_require_active_on_finished_raises(self):
        t = Transaction()
        t.mark_committed()
        with pytest.raises(ProtocolError, match="committed"):
            t.require_active()


class TestReadWriteSets:
    def test_record_read_keeps_version(self):
        t = Transaction()
        t.record_read("x", 5)
        assert t.read_set == {"x": 5}

    def test_record_write_keeps_value(self):
        t = Transaction()
        t.record_write("y", 10)
        assert t.write_set == {"y": 10}

    def test_read_only_write_rejected(self):
        t = Transaction(TxnClass.READ_ONLY)
        with pytest.raises(ProtocolError, match="read-only"):
            t.record_write("x", 1)

    def test_sn_infinity_compares_above_any_tn(self):
        assert SN_INFINITY > 10**18
