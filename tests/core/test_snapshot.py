"""Tests for the Section 6 delayed-visibility remedies."""

import pytest

from repro.core.snapshot import SnapshotManager, VisibilityWaiter
from repro.core.version_control import VersionControl
from repro.core.transaction import Transaction
from repro.protocols import VC2PLScheduler, VCTOScheduler


class TestVisibilityWaiter:
    def test_immediate_when_already_visible(self):
        vc = VersionControl()
        waiter = VisibilityWaiter(vc)
        f = waiter.wait_for(0)
        assert f.done
        assert f.result() == 0

    def test_waits_until_threshold(self):
        vc = VersionControl()
        waiter = VisibilityWaiter(vc)
        f = waiter.wait_for(2)
        assert f.pending
        t1, t2 = Transaction(), Transaction()
        vc.vc_register(t1)
        vc.vc_register(t2)
        vc.vc_complete(t1)
        assert f.pending, "vtnc=1 < 2"
        vc.vc_complete(t2)
        assert f.result() == 2
        assert not waiter._waiters

    def test_multiple_thresholds_release_in_order(self):
        vc = VersionControl()
        waiter = VisibilityWaiter(vc)
        f1, f3 = waiter.wait_for(1), waiter.wait_for(3)
        txns = [Transaction() for _ in range(3)]
        for t in txns:
            vc.vc_register(t)
        vc.vc_complete(txns[0])
        assert f1.done and f3.pending
        vc.vc_complete(txns[1])
        vc.vc_complete(txns[2])
        assert f3.done


class TestTemporalFloorRemedy:
    def test_ro_after_specific_commit_sees_it(self):
        db = VCTOScheduler()
        snap = SnapshotManager(db)
        t1 = db.begin()  # tn=1, long-running
        t2 = db.begin()  # tn=2
        db.write(t2, "x", 42).result()
        db.commit(t2).result()
        # Plain RO started now would get sn=0 and miss t2's update:
        plain = db.begin(read_only=True)
        assert plain.sn == 0
        db.commit(plain).result()
        # Remedy 1: require sn >= tn(t2).
        f = snap.begin_read_only_after(t2.tn)
        assert f.pending, "visibility has not caught up while t1 is active"
        db.commit(t1).result()
        reader = f.result()
        assert reader.sn >= t2.tn
        assert db.read(reader, "x").result() == 42
        db.commit(reader).result()

    def test_immediate_when_already_caught_up(self):
        db = VC2PLScheduler()
        snap = SnapshotManager(db)
        w = db.begin()
        db.write(w, "x", 1).result()
        db.commit(w).result()
        f = snap.begin_read_only_after(w.tn)
        assert f.done
        reader = f.result()
        assert db.read(reader, "x").result() == 1


class TestPseudoReadWriteRemedy:
    def test_current_reader_sees_latest_state(self):
        db = VCTOScheduler()
        snap = SnapshotManager(db)
        t1 = db.begin()
        t2 = db.begin()
        db.write(t2, "x", 7).result()
        db.commit(t2).result()  # invisible to ROs while t1 runs
        current = snap.begin_current_reader()
        assert current.is_read_write, "pays full CC cost"
        assert db.read(current, "x").result() == 7
        db.commit(current).result()
        db.commit(t1).result()

    def test_staleness_bound(self):
        # The lag between the counters is the staleness of a new snapshot.
        db = VCTOScheduler()
        assert db.vc.lag == 0
        t1 = db.begin()
        t2 = db.begin()
        db.commit(t2).result()
        assert db.vc.lag == 2
        db.commit(t1).result()
        assert db.vc.lag == 0
