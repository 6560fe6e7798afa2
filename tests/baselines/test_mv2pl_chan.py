"""Tests for Chan et al.'s MV2PL baseline and its CTL costs."""

import pytest

from repro.baselines import MV2PLScheduler
from repro.histories import assert_one_copy_serializable


@pytest.fixture
def db():
    return MV2PLScheduler()


class TestReadWritePath:
    def test_commit_assigns_timestamp_and_appends_ctl(self, db):
        t = db.begin()
        db.write(t, "x", 1).result()
        db.commit(t).result()
        assert t.tn == 1
        assert 1 in db.ctl
        assert len(db.ctl) == 2  # {0, 1}

    def test_locking_conflicts_apply(self, db):
        w = db.begin()
        db.write(w, "x", 1).result()
        r = db.begin()
        f = db.read(r, "x")
        assert f.pending
        db.commit(w).result()
        assert f.result() == 1

    def test_deadlock_resolved(self, db):
        t1, t2 = db.begin(), db.begin()
        db.write(t1, "x", 1).result()
        db.write(t2, "y", 2).result()
        db.write(t1, "y", 3)
        f = db.write(t2, "x", 4)
        assert f.failed
        assert db.counters.get("deadlock") == 1
        db.commit(t1).result()
        assert_one_copy_serializable(db.history)


class TestReadOnlyPath:
    def test_ro_copies_ctl_at_begin(self, db):
        for i in range(3):
            t = db.begin()
            db.write(t, f"k{i}", i).result()
            db.commit(t).result()
        ro = db.begin(read_only=True)
        assert ro.private.ctl_copy == {0, 1, 2, 3}
        assert db.counters.get("ctl.copied_entries") == 4

    def test_ro_read_probes_ctl_membership(self, db):
        for i in range(3):
            t = db.begin()
            db.write(t, "x", i).result()
            db.commit(t).result()
        ro = db.begin(read_only=True)
        assert db.read(ro, "x").result() == 2
        assert db.counters.get("ctl.membership_checks") >= 1

    def test_ro_never_blocks_on_writer(self, db):
        w0 = db.begin()
        db.write(w0, "x", 1).result()
        db.commit(w0).result()
        w = db.begin()
        db.write(w, "x", 2).result()  # X lock held, version not installed
        ro = db.begin(read_only=True)
        f = db.read(ro, "x")
        assert f.done
        assert f.result() == 1

    def test_ro_snapshot_stable_under_later_commits(self, db):
        w0 = db.begin()
        db.write(w0, "x", 1).result()
        db.commit(w0).result()
        ro = db.begin(read_only=True)
        w = db.begin()
        db.write(w, "x", 2).result()
        db.commit(w).result()
        assert db.read(ro, "x").result() == 1, "start timestamp bounds the view"
        db.commit(ro).result()
        assert_one_copy_serializable(db.history)

    def test_ctl_grows_without_bound(self, db):
        """The maintenance burden the paper criticizes (EXP-F measures it)."""
        for i in range(50):
            t = db.begin()
            db.write(t, "x", i).result()
            db.commit(t).result()
        assert len(db.ctl) == 51
        ro = db.begin(read_only=True)
        assert len(ro.private.ctl_copy) == 51

    def test_ro_zero_cost_metrics_do_not_apply_here(self, db):
        """Contrast with VC protocols: MV2PL read-only txns DO interact
        with protocol machinery at begin (CTL copy)."""
        ro = db.begin(read_only=True)
        db.read(ro, "x").result()
        db.commit(ro).result()
        assert db.counters.get("cc.ro") == 1  # the CTL copy


class TestSerializability:
    def test_mixed_history_is_1sr(self, db):
        for i in range(5):
            w = db.begin()
            db.write(w, "a", i).result()
            db.write(w, "b", -i).result()
            db.commit(w).result()
            ro = db.begin(read_only=True)
            assert db.read(ro, "a").result() == i
            assert db.read(ro, "b").result() == -i
            db.commit(ro).result()
        assert_one_copy_serializable(db.history)
