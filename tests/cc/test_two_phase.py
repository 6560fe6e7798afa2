"""The strict-2PL execution phase, as each lock-based scheduler runs it.

Four schedulers share :class:`repro.cc.two_phase.StrictTwoPhaseLocking`;
these are the behaviours each of them used to spell out for itself.
"""

import pytest

from repro.cc.two_phase import StrictTwoPhaseLocking
from repro.errors import AbortReason, DeadlockError, ProtocolError
from repro.protocols.registry import make_scheduler

LOCK_BASED = ["vc-2pl", "sv-2pl", "mv2pl-chan", "weihl-ti"]


@pytest.fixture(params=LOCK_BASED)
def db(request):
    scheduler = make_scheduler(request.param)
    assert isinstance(scheduler, StrictTwoPhaseLocking)
    return scheduler


def test_read_returns_the_transactions_own_staged_write(db):
    t = db.begin()
    db.write(t, "x", 5).result()
    assert db.read(t, "x").result() == 5
    assert t.read_set == {"x": -1}, "own write: no committed version was read"
    assert db.counters.get("cc.rw.r-lock") == db.counters.get("cc.rw.w-lock") == 1
    db.commit(t).result()
    other = db.begin()
    assert db.read(other, "x").result() == 5
    assert other.read_set == {"x": t.tn}, "now the committed version, by number"


def test_lock_wait_victim_is_aborted_counted_and_released(db):
    t1, t2 = db.begin(), db.begin()
    db.write(t1, "x", 1).result()
    db.write(t2, "y", 2).result()
    survivor = db.write(t1, "y", 3)
    assert survivor.pending and db.counters.get("block.rw.lock") == 1
    victim = db.write(t2, "x", 4)  # closes the cycle; the requester is the victim
    assert isinstance(victim.error, DeadlockError)
    assert not t2.is_active and t2.abort_reason is AbortReason.DEADLOCK_VICTIM
    assert db.counters.get("deadlock") == db.counters.get("abort.rw.deadlock_victim") == 1
    assert db.locks.held_by(t2.txn_id) == set(), "the victim's locks are gone"
    assert survivor.done and t1.write_set == {"x": 1, "y": 3}
    db.commit(t1).result()
    assert db.locks.is_idle()


def test_read_only_write_is_a_protocol_error_not_a_lock_request(db):
    reader = db.begin(read_only=True)
    with pytest.raises(ProtocolError, match="read-only"):
        db.write(reader, "x", 1)
    assert db.counters.get("cc.ro.w-lock") == 0
    assert db.locks.is_idle() and reader.write_set == {}
