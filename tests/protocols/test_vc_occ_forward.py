"""Tests for VC + forward-validation OCC (wound-the-readers)."""

import pytest

from repro.errors import AbortReason, TransactionAborted
from repro.histories import assert_one_copy_serializable
from repro.protocols.vc_occ_forward import VCOCCForwardScheduler
from tests.stress.driver import RandomDriver


@pytest.fixture
def db():
    return VCOCCForwardScheduler()


class TestCommitterNeverFails:
    def test_clean_commit(self, db):
        t = db.begin()
        db.write(t, "x", 1).result()
        assert db.commit(t).done
        assert t.tn == 1

    def test_committer_wins_even_when_stale_elsewhere(self, db):
        """Unlike backward validation, the committer never aborts."""
        t1 = db.begin()
        db.read(t1, "x").result()
        db.write(t1, "x", 1).result()
        t2 = db.begin()
        db.read(t2, "x").result()
        db.write(t2, "x", 2).result()
        assert db.commit(t1).done
        # t2 was wounded by t1's commit (it read x, t1 wrote x).
        with pytest.raises(TransactionAborted) as raised:
            db.commit(t2)
        assert raised.value.reason is AbortReason.WOUNDED
        assert t2.abort_reason is AbortReason.WOUNDED


class TestWounding:
    def test_active_reader_of_written_key_is_wounded(self, db):
        reader = db.begin()
        db.read(reader, "x").result()
        writer = db.begin()
        db.write(writer, "x", 5).result()
        db.commit(writer).result()
        assert reader.state.value == "aborted"
        assert reader.abort_reason is AbortReason.WOUNDED
        assert db.counters.get("occ.wounded") == 1

    def test_wounded_txn_discovers_on_next_op(self, db):
        reader = db.begin()
        db.read(reader, "x").result()
        writer = db.begin()
        db.write(writer, "x", 5).result()
        db.commit(writer).result()
        with pytest.raises(TransactionAborted) as raised:
            db.read(reader, "y")
        assert raised.value.reason is AbortReason.WOUNDED

    def test_wounded_commit_fails_gracefully(self, db):
        reader = db.begin()
        db.read(reader, "x").result()
        writer = db.begin()
        db.write(writer, "x", 5).result()
        db.commit(writer).result()
        with pytest.raises(TransactionAborted) as raised:
            db.commit(reader)
        assert raised.value.reason is AbortReason.WOUNDED

    def test_nonconflicting_active_txns_survive(self, db):
        bystander = db.begin()
        db.read(bystander, "y").result()
        writer = db.begin()
        db.write(writer, "x", 5).result()
        db.commit(writer).result()
        assert bystander.is_active
        db.commit(bystander).result()

    def test_blind_writers_not_wounded(self, db):
        blind = db.begin()
        db.write(blind, "x", 1).result()   # writes x but never read it
        writer = db.begin()
        db.write(writer, "x", 2).result()
        db.commit(writer).result()
        assert blind.is_active, "write-write is ordered by tn, no wound"
        db.commit(blind).result()
        assert_one_copy_serializable(db.history)

    def test_read_only_transactions_never_wounded(self, db):
        w0 = db.begin()
        db.write(w0, "x", 1).result()
        db.commit(w0).result()
        ro = db.begin(read_only=True)
        db.read(ro, "x").result()
        writer = db.begin()
        db.write(writer, "x", 2).result()
        db.commit(writer).result()
        assert ro.is_active
        assert db.read(ro, "x").result() == 1, "snapshot intact"
        db.commit(ro).result()
        assert db.counters.get("occ.wounded") == 0


class TestSerializability:
    def test_contended_increments_no_lost_updates(self, db):
        db.store.preload({"c": 0})
        committed = 0
        for _ in range(10):
            a, b = db.begin(), db.begin()
            va = db.read(a, "c").result()
            db.write(a, "c", va + 1).result()
            fb = db.read(b, "c")
            if not fb.failed:
                db.write(b, "c", fb.result() + 1)
            for txn in (a, b):
                try:
                    f = db.commit(txn)
                except TransactionAborted:  # b, wounded by a's commit
                    continue
                if not f.failed:
                    committed += 1
        assert db.store.read_latest_committed("c").value == committed
        assert_one_copy_serializable(db.history)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_interleavings_serializable(self, seed):
        db = VCOCCForwardScheduler()
        driver = RandomDriver(db, seed=seed)
        driver.run(250)
        assert_one_copy_serializable(db.history)
        assert db.counters.get("cc.ro") == 0
        assert db.vc.lag == 0
