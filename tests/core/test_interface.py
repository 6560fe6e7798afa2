"""Tests for the scheduler interface plumbing and counters."""

import pytest

from repro.core.interface import SchedulerCounters
from repro.core.transaction import Transaction, TxnClass
from repro.errors import AbortReason


def ro():
    return Transaction(TxnClass.READ_ONLY)


def rw():
    return Transaction()


class TestSchedulerCounters:
    def test_bump_and_get(self):
        c = SchedulerCounters()
        c.bump("custom")
        c.bump("custom", 4)
        assert c.get("custom") == 5
        assert c.get("missing") == 0

    def test_get_of_an_untouched_name_creates_nothing(self):
        c = SchedulerCounters()
        assert c.get("missing") == 0
        c.note_commit(rw())
        c.bump("custom", 0)
        assert c.get("commit.ro") == 0
        assert list(c.as_dict().items()) == [("commit.rw", 1), ("custom", 0)]

    def test_begin_commit_split_by_class(self):
        c = SchedulerCounters()
        c.note_begin(ro())
        c.note_begin(rw())
        c.note_commit(rw())
        assert c.get("begin.ro") == 1
        assert c.get("begin.rw") == 1
        assert c.get("commit.rw") == 1
        assert c.get("commit.ro") == 0

    def test_abort_records_reason_and_attribution(self):
        c = SchedulerCounters()
        c.note_abort(rw(), AbortReason.TIMESTAMP_REJECTED, caused_by_readonly=True)
        assert c.get("abort.rw") == 1
        assert c.get("abort.rw.timestamp_rejected") == 1
        assert c.get("abort.rw.caused_by_readonly") == 1

    def test_ro_self_abort_not_counted_as_ro_caused(self):
        c = SchedulerCounters()
        c.note_abort(ro(), AbortReason.TIMESTAMP_REJECTED, caused_by_readonly=True)
        assert c.get("abort.ro") == 1
        assert c.get("abort.rw.caused_by_readonly") == 0

    def test_cc_and_vc_interactions(self):
        c = SchedulerCounters()
        c.note_cc_interaction(rw(), "r-lock")
        c.note_vc_interaction(ro(), "start")
        assert c.get("cc.rw") == 1
        assert c.get("cc.rw.r-lock") == 1
        assert c.get("vc.ro.start") == 1

    def test_block_with_cause(self):
        c = SchedulerCounters()
        c.note_block(ro(), "pending-write")
        assert c.get("block.ro") == 1
        assert c.get("block.ro.pending-write") == 1

    def test_sync_write(self):
        c = SchedulerCounters()
        c.note_sync_write(ro(), "r_ts")
        assert c.get("syncwrite.ro") == 1
        assert c.get("syncwrite.ro.r_ts") == 1

    def test_as_dict_snapshot(self):
        c = SchedulerCounters()
        c.bump("a")
        snapshot = c.as_dict()
        c.bump("a")
        assert snapshot == {"a": 1}, "as_dict returns a copy"
