"""Tests for the scheduler-to-history bridge."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import SimConfig, run_simulation
from repro.core.transaction import Transaction, TxnClass, TxnState
from repro.histories import recorder as recorder_module
from repro.histories.operations import History, Op, OpKind
from repro.histories.recorder import RO_ID_OFFSET, HistoryRecorder
from repro.protocols.registry import PROTOCOLS, make_scheduler
from repro.workload.mixes import balanced


def rw_txn(tn=None):
    t = Transaction()
    t.tn = tn
    return t


def ro_txn(sn=0):
    t = Transaction(TxnClass.READ_ONLY)
    t.sn = sn
    return t


class TestIdentity:
    def test_read_write_identity_is_tn(self):
        assert HistoryRecorder.identity(rw_txn(tn=7)) == 7

    def test_read_only_identity_is_offset_id(self):
        t = ro_txn()
        assert HistoryRecorder.identity(t) == RO_ID_OFFSET + t.txn_id

    def test_unnumbered_read_write_rejected(self):
        with pytest.raises(ValueError, match="no tn"):
            HistoryRecorder.identity(rw_txn())

    def test_tn_in_read_only_range_rejected(self):
        # A tn at or above RO_ID_OFFSET would alias a read-only node and
        # silently misattribute the writer's operations in every checker.
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError, match="RO_ID_OFFSET"):
            HistoryRecorder.identity(rw_txn(tn=RO_ID_OFFSET))
        with pytest.raises(ProtocolError, match="refusing to alias"):
            HistoryRecorder.identity(rw_txn(tn=RO_ID_OFFSET + 5))
        # The guard is exclusive: the last legal tn still records.
        assert HistoryRecorder.identity(rw_txn(tn=RO_ID_OFFSET - 1)) == RO_ID_OFFSET - 1

    def test_commit_of_aliasing_tn_raises_loudly(self):
        from repro.errors import ProtocolError

        rec = HistoryRecorder()
        t = rw_txn()
        rec.record_begin(t)
        rec.record_write(t, "x")
        t.tn = RO_ID_OFFSET + 1
        with pytest.raises(ProtocolError):
            rec.record_commit(t)


class TestBufferingAndFlush:
    def test_operations_flushed_under_tn_at_commit(self):
        rec = HistoryRecorder()
        t = rw_txn()
        rec.record_begin(t)
        rec.record_read(t, "x", 0)
        rec.record_write(t, "x")
        t.tn = 3  # assigned late, as under 2PL
        rec.record_commit(t)
        h = rec.history
        assert str(h) == "b3 r3[x_0] w3[x_3] c3"

    def test_own_write_read_fixed_up(self):
        rec = HistoryRecorder()
        t = rw_txn()
        rec.record_write(t, "x")
        rec.record_read(t, "x", None)  # own staged write
        t.tn = 5
        rec.record_commit(t)
        reads = [op for op in rec.history if op.kind is OpKind.READ]
        assert reads[0].version == 5

    def test_aborted_unnumbered_txn_gets_negative_identity(self):
        rec = HistoryRecorder()
        t = rw_txn()
        rec.record_read(t, "x", 0)
        rec.record_abort(t)
        idents = {op.txn for op in rec.history}
        assert all(i < 0 for i in idents)
        assert rec.history.committed() == set()

    def test_aborted_numbered_txn_keeps_tn(self):
        rec = HistoryRecorder()
        t = rw_txn(tn=4)
        rec.record_write(t, "x")
        rec.record_abort(t)
        assert {op.txn for op in rec.history} == {4}

    def test_read_only_commit(self):
        rec = HistoryRecorder()
        t = ro_txn()
        rec.record_begin(t)
        rec.record_read(t, "x", 2)
        rec.record_commit(t)
        ident = RO_ID_OFFSET + t.txn_id
        assert rec.history.committed() == {ident}
        assert (ident, 2, "x") in rec.history.reads_from()

    def test_full_history_includes_in_flight(self):
        rec = HistoryRecorder()
        t = rw_txn()
        rec.record_read(t, "x", 0)
        assert len(rec.history) == 0
        full = rec.full_history()
        assert len(full) == 2  # begin + read under pseudo identity
        assert full.committed() == set()

    def test_distinct_ro_txns_do_not_collide(self):
        rec = HistoryRecorder()
        a, b = ro_txn(), ro_txn()
        rec.record_read(a, "x", 0)
        rec.record_read(b, "x", 0)
        rec.record_commit(a)
        rec.record_commit(b)
        assert len(rec.history.committed()) == 2


# -- the fold: one log, read three ways ------------------------------------------


class _BufferingReference:
    """The recorder as it was before the log, kept as the oracle: ``Op``
    objects buffered per transaction at record time and flushed under the
    final identity at finish, plus a separately kept live list."""

    def __init__(self):
        self.buffers, self.history, self.live, self.abort_seq = {}, History(), [], 0

    def begin(self, txn):
        self.buffers.setdefault(txn.txn_id, [])

    def read(self, txn, key, version):
        self.buffers.setdefault(txn.txn_id, []).append(Op(OpKind.READ, -1, key, version))
        self.live.append(("r", txn.txn_id, key, version, None))

    def write(self, txn, key):
        self.buffers.setdefault(txn.txn_id, []).append(Op(OpKind.WRITE, -1, key, -1))
        self.live.append(("w", txn.txn_id, key, None, None))

    def finish(self, txn, kind):
        if txn.is_read_only:
            ident = RO_ID_OFFSET + txn.txn_id
        elif txn.tn is not None:
            ident = txn.tn
        else:  # only an abort gets here: commits are numbered first
            self.abort_seq += 1
            ident = -self.abort_seq
        self.history.extend(self._flush(self.buffers.pop(txn.txn_id, []), ident))
        self.history.append(Op(kind, ident))
        self.live.append((kind.value, txn.txn_id, None, None, txn.tn))

    @staticmethod
    def _flush(buffered, ident):
        yield Op(OpKind.BEGIN, ident)
        for op in buffered:
            own = op.kind is OpKind.WRITE or op.version is None
            yield Op(op.kind, ident, op.key, ident if own else op.version)

    def full_history(self):
        combined = History(list(self.history.ops))
        for nth, buffered in enumerate(self.buffers.values(), start=1):
            combined.extend(self._flush(buffered, -1_000_000 - nth))
        return combined


#: (transaction index, action).  Nothing is sequenced: operations may come
#: without a begin, after a finish, and a finish may be repeated — the
#: recorder guards none of it and crash-recovery replay relies on that.
_STEPS = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from(["begin", "read", "read-own", "write", "number", "commit", "abort"]),
        st.sampled_from("xyz"),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(steps=_STEPS)
def test_log_views_equal_the_buffering_reference(steps):
    txns = [ro_txn(), ro_txn(), rw_txn(), rw_txn(), rw_txn(), rw_txn()]
    eager, lazy, reference = HistoryRecorder(), HistoryRecorder(), _BufferingReference()

    def record(method, *args):
        for recorder in (eager, lazy):
            getattr(recorder, method)(*args)

    next_tn = 0
    for index, action, key in steps:
        txn = txns[index]
        numbering = action == "number" or (action == "commit" and txn.tn is None)
        if numbering and not txn.is_read_only:
            next_tn += 1
            txn.tn = next_tn  # late, as under 2PL; a renumbering is Weihl's
        if action == "begin":
            record("record_begin", txn)
            reference.begin(txn)
        elif action in ("read", "read-own"):
            version = None if action == "read-own" else index
            record("record_read", txn, key, version)
            reference.read(txn, key, version)
        elif action == "write":
            record("record_write", txn, key)
            reference.write(txn, key)
        elif action in ("commit", "abort"):
            record(f"record_{action}", txn)
            reference.finish(txn, OpKind(action[0]))
        # Reading after every call must equal reading once at the end.
        assert eager.history.ops == reference.history.ops
        assert eager.full_history().ops == reference.full_history().ops
    for recorder in (eager, lazy):
        assert recorder.history.ops == reference.history.ops
        assert recorder.live == reference.live
        assert recorder.full_history().ops == reference.full_history().ops


def test_no_op_is_built_until_the_history_is_read(monkeypatch):
    """Counting, not timing: recording allocates no ``Op``; reading the
    history builds each of its operations exactly once."""
    built = []

    def counting_op(*args):
        built.append(Op(*args))
        return built[-1]

    monkeypatch.setattr(recorder_module, "Op", counting_op)
    db = make_scheduler("vc-2pl")
    run_simulation(
        db, balanced(seed=3), SimConfig(duration=200.0, check_serializability=False)
    )
    assert len(db.recorder.log) > 500
    assert built == []
    history = db.history
    assert len(built) == len(history) > 500
    assert db.history is history and len(built) == len(history)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_read_and_write_sets_match_the_recorded_operations(protocol):
    """The invariant the paired ``txn.record_*`` / ``recorder.record_*`` calls
    used to keep by hand: what a committed transaction's descriptor says it
    read and wrote is what the recorder logged for it."""
    db = make_scheduler(protocol)
    begun = []
    scheduler_begin = db.begin

    def begin(*args, **kwargs):
        begun.append(scheduler_begin(*args, **kwargs))
        return begun[-1]

    db.begin = begin
    run_simulation(
        db,
        balanced(seed=3),
        SimConfig(duration=200.0, user_abort_probability=0.02, check_serializability=False),
    )
    logged = {"r": {}, "w": {}}
    for kind, txn_id, key, *_ in db.recorder.log:
        if kind in logged:
            logged[kind].setdefault(txn_id, set()).add(key)
    committed = [txn for txn in begun if txn.state is TxnState.COMMITTED]
    assert len(committed) > 50
    for txn in committed:
        assert set(txn.read_set) == logged["r"].get(txn.txn_id, set())
        assert set(txn.write_set) == logged["w"].get(txn.txn_id, set())
