"""Tests for write-ahead logging, crash injection, and recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.recoverable import RecoverableVC2PLScheduler
from repro.histories import assert_one_copy_serializable
from repro.storage.wal import (
    LogRecord,
    RecordKind,
    WriteAheadLog,
    install_committed,
    recover,
    redo_summary,
)


class TestWriteAheadLog:
    def test_append_is_volatile_until_force(self):
        log = WriteAheadLog()
        log.append(LogRecord(RecordKind.WRITE, 1, key="x", value=1))
        assert log.durable_records() == []
        log.force()
        assert len(log.durable_records()) == 1

    def test_crash_drops_volatile_suffix(self):
        log = WriteAheadLog()
        log.append(LogRecord(RecordKind.WRITE, 1, key="x", value=1))
        log.force()
        log.append(LogRecord(RecordKind.WRITE, 2, key="y", value=2))
        lost = log.crash()
        assert lost == 1
        assert len(log.all_records()) == 1

    def test_forces_counted(self):
        log = WriteAheadLog()
        log.force()
        log.force()
        assert log.forces == 2

    def test_redo_summary(self):
        log = WriteAheadLog()
        log.append(LogRecord(RecordKind.WRITE, 1, key="x", value=1))
        log.append(LogRecord(RecordKind.COMMIT, 1, tn=1))
        assert redo_summary(log.all_records()) == {"write": 1, "commit": 1}


class TestRecoverFunction:
    def test_empty_log_recovers_empty_state(self):
        store, vc = recover(WriteAheadLog())
        assert len(store) == 0
        assert vc.tnc == 1

    def test_committed_writes_replayed_in_tn_order(self):
        log = WriteAheadLog()
        log.append(LogRecord(RecordKind.WRITE, 10, key="x", value="a"))
        log.append(LogRecord(RecordKind.COMMIT, 10, tn=1))
        log.append(LogRecord(RecordKind.WRITE, 11, key="x", value="b"))
        log.append(LogRecord(RecordKind.COMMIT, 11, tn=2))
        log.force()
        store, vc = recover(log)
        assert store.read_snapshot("x", 2).value == "b"
        assert store.read_snapshot("x", 1).value == "a"
        assert vc.tnc == 3
        assert vc.vtnc == 2

    def test_uncommitted_writes_ignored(self):
        log = WriteAheadLog()
        log.append(LogRecord(RecordKind.WRITE, 10, key="x", value="ghost"))
        log.force()
        store, _vc = recover(log)
        assert "x" not in store

    def test_aborted_transactions_ignored(self):
        log = WriteAheadLog()
        log.append(LogRecord(RecordKind.WRITE, 10, key="x", value="ghost"))
        log.append(LogRecord(RecordKind.ABORT, 10))
        log.force()
        store, _vc = recover(log)
        assert "x" not in store


class TestRecoverableScheduler:
    def test_commit_survives_crash(self):
        db = RecoverableVC2PLScheduler()
        t = db.begin()
        db.write(t, "x", 42).result()
        db.commit(t).result()
        db.crash()
        db2 = db.recovered()
        r = db2.begin(read_only=True)
        assert db2.read(r, "x").result() == 42

    def test_uncommitted_work_vanishes(self):
        db = RecoverableVC2PLScheduler()
        t = db.begin()
        db.write(t, "x", 42).result()   # staged + logged, never committed
        lost = db.crash()
        assert lost >= 1
        db2 = db.recovered()
        r = db2.begin(read_only=True)
        assert db2.read(r, "x").result() is None

    def test_numbering_resumes_above_recovered_tn(self):
        db = RecoverableVC2PLScheduler()
        for value in (1, 2, 3):
            t = db.begin()
            db.write(t, "x", value).result()
            db.commit(t).result()
        db.crash()
        db2 = db.recovered()
        t = db2.begin()
        db2.write(t, "x", 4).result()
        db2.commit(t).result()
        assert t.tn == 4
        chain = [v.tn for v in db2.store.object("x").versions()]
        assert chain == [0, 1, 2, 3, 4]  # implicit initial version + replayed

    def test_recovered_keeps_constructor_configuration(self):
        db2 = RecoverableVC2PLScheduler(victim_policy="youngest").recovered()
        assert db2.locks.victim_policy == "youngest"

    def test_aborted_txn_never_resurfaces(self):
        db = RecoverableVC2PLScheduler()
        t = db.begin()
        db.write(t, "x", 13).result()
        db.abort(t)
        good = db.begin()
        db.write(good, "x", 7).result()
        db.commit(good).result()
        db.crash()
        db2 = db.recovered()
        r = db2.begin(read_only=True)
        assert db2.read(r, "x").result() == 7

    def test_one_force_per_commit(self):
        db = RecoverableVC2PLScheduler()
        for i in range(5):
            t = db.begin()
            db.write(t, f"k{i}", i).result()
            db.commit(t).result()
        assert db.log.forces == 5

    def test_recovered_history_continues_serializable(self):
        db = RecoverableVC2PLScheduler()
        t = db.begin()
        db.write(t, "x", 1).result()
        db.commit(t).result()
        db.crash()
        db2 = db.recovered()
        t2 = db2.begin()
        v = db2.read(t2, "x").result()
        db2.write(t2, "x", v + 1).result()
        db2.commit(t2).result()
        assert_one_copy_serializable(db2.history)


@settings(max_examples=60, deadline=None)
@given(
    crash_after=st.integers(min_value=0, max_value=10),
    values=st.lists(st.integers(0, 100), min_size=1, max_size=10),
)
def test_property_crash_anywhere_is_all_or_nothing(crash_after, values):
    """Inject a crash after the Nth committed transaction; recovery must
    reflect exactly the committed prefix, nothing more, nothing less."""
    db = RecoverableVC2PLScheduler()
    committed = []
    for i, value in enumerate(values):
        t = db.begin()
        db.write(t, "acc", value).result()
        db.write(t, f"side{i}", value).result()
        if len(committed) >= crash_after:
            break
        db.commit(t).result()
        committed.append(value)
    db.crash()
    db2 = db.recovered()
    r = db2.begin(read_only=True)
    expected = committed[-1] if committed else None
    assert db2.read(r, "acc").result() == expected
    assert db2.vc.vtnc == len(committed)


def _chains(store):
    return {
        key: [(v.tn, v.value) for v in store.object(key).versions()]
        for key in store.keys()
    }


class TestIdempotentApply:
    """Replaying the same durable prefix twice must change nothing.

    Log shipping (repro.replica) re-sends unacknowledged suffixes after
    drops and partitions, so the apply path — the same
    :func:`install_committed` recovery uses — must tolerate a record being
    applied at the same log position more than once.
    """

    def _loaded_log(self):
        db = RecoverableVC2PLScheduler()
        for i in range(5):
            t = db.begin()
            db.write(t, f"k{i % 2}", i).result()
            db.commit(t).result()
        return db.log

    def test_recover_twice_identical_chains_and_counters(self):
        log = self._loaded_log()
        store1, vc1 = recover(log)
        store2, vc2 = recover(log)
        assert _chains(store1) == _chains(store2)
        assert (vc1.tnc, vc1.vtnc) == (vc2.tnc, vc2.vtnc)

    def test_install_committed_twice_is_idempotent(self):
        store, _vc = recover(self._loaded_log())
        before = _chains(store)
        install_committed(store, 5, [("k0", 4)])  # tn 5 wrote k0=4 already
        assert _chains(store) == before

    def test_double_apply_of_durable_suffix(self):
        log = self._loaded_log()
        store, _vc = recover(log)
        baseline = _chains(store)
        # Re-apply the whole durable prefix, exactly as a replica would on a
        # duplicated shipment: stage writes, install on commit.
        staged: dict[int, list] = {}
        for record in log.durable_suffix(0):
            if record.kind is RecordKind.WRITE:
                staged.setdefault(record.txn_id, []).append(
                    (record.key, record.value)
                )
            elif record.kind is RecordKind.COMMIT:
                install_committed(store, record.tn, staged.pop(record.txn_id, ()))
        assert _chains(store) == baseline

    def test_durable_suffix_bounds(self):
        log = WriteAheadLog()
        log.append(LogRecord(RecordKind.WRITE, 1, key="x", value=1))
        log.force()
        log.append(LogRecord(RecordKind.WRITE, 2, key="y", value=2))
        assert log.durable_length() == 1
        assert len(log.durable_suffix(0)) == 1  # volatile tail excluded
        assert log.durable_suffix(1) == []
        with pytest.raises(ValueError):
            log.durable_suffix(-1)


class TestCheckpointing:
    def _loaded_db(self, commits=6):
        db = RecoverableVC2PLScheduler()
        for i in range(commits):
            t = db.begin()
            db.write(t, f"k{i % 3}", i).result()
            db.commit(t).result()
        return db

    def test_checkpoint_truncates_log(self):
        db = self._loaded_db()
        before = len(db.log)
        dropped = db.checkpoint()
        assert dropped == before
        assert len(db.log) == 1  # just the checkpoint record

    def test_recovery_from_checkpoint_restores_versions(self):
        db = self._loaded_db()
        db.checkpoint()
        db.crash()
        db2 = db.recovered()
        r = db2.begin(read_only=True)
        assert db2.read(r, "k0").result() == 3
        assert db2.read(r, "k2").result() == 5
        # Old snapshots survive too: version chains were checkpointed whole.
        assert db2.store.read_snapshot("k0", 1).value == 0

    def test_numbering_resumes_after_checkpoint_recovery(self):
        db = self._loaded_db(commits=4)
        db.checkpoint()
        db.crash()
        db2 = db.recovered()
        t = db2.begin()
        db2.write(t, "k0", 99).result()
        db2.commit(t).result()
        assert t.tn == 5

    def test_commits_after_checkpoint_replay(self):
        db = self._loaded_db(commits=3)
        db.checkpoint()
        t = db.begin()
        db.write(t, "post", "yes").result()
        db.commit(t).result()
        db.crash()
        db2 = db.recovered()
        r = db2.begin(read_only=True)
        assert db2.read(r, "post").result() == "yes"
        assert db2.read(r, "k0").result() == 0

    def test_checkpoint_composes_with_gc(self):
        db = self._loaded_db(commits=9)
        db.gc.collect()  # discard unreachable old versions
        db.checkpoint()
        db.crash()
        db2 = db.recovered()

        def nonzero_versions(store):
            return sum(
                1
                for key in store.keys()
                for v in store.object(key).versions()
                if v.tn != 0
            )

        # The collected versions stay collected after recovery (recovery
        # re-creates the implicit initial version per object, nothing else).
        assert nonzero_versions(db2.store) == nonzero_versions(db.store)
        r = db2.begin(read_only=True)
        assert db2.read(r, "k0").result() == 6

    def test_checkpoint_with_inflight_rw_rejected(self):
        db = self._loaded_db(commits=1)
        t = db.begin()
        db.write(t, "x", 1).result()
        with pytest.raises(Exception, match="in-flight"):
            db.checkpoint()
        db.abort(t)

    def test_checkpoint_without_truncation(self):
        db = self._loaded_db(commits=2)
        before = len(db.log)
        dropped = db.checkpoint(truncate=False)
        assert dropped == 0
        assert len(db.log) == before + 1
