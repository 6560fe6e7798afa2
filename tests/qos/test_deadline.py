"""Deadline enforcement: lock-manager sweeps, cancellation."""

import pytest

from repro.cc.granular import GranularLockManager, GranularMode
from repro.cc.lock_manager import LockManager
from repro.cc.locks import LockMode
from repro.errors import DeadlineExceeded, SiteUnavailable
from repro.protocols.vc_granular import VCGranular2PLScheduler


class _Rig:
    """One lock manager and where a test's key ``"x"`` lives in it."""

    def __init__(self, manager, shared, exclusive, resource, node):
        self.lm = manager()
        self.S, self.X = shared, exclusive
        self.resource = resource  # (txn, key) -> what that transaction locks
        self.node = node  # key -> the table entry the waiters queue at

    def acquire(self, txn, key, mode, **kwargs):
        return self.lm.acquire(txn, self.resource(txn, key), mode, **kwargs)

    def waiting(self, key):
        return self.lm.waiting(self.node(key))


RIGS = {
    "flat": lambda: _Rig(
        LockManager, LockMode.SHARED, LockMode.EXCLUSIVE,
        lambda txn, key: key, lambda key: key,
    ),
    # Contention at the leaf: everyone's intention locks at the root coexist.
    "granular-leaf": lambda: _Rig(
        GranularLockManager, GranularMode.S, GranularMode.X,
        lambda txn, key: ("db", key), lambda key: ("db", key),
    ),
    # Contention at an ancestor: T1 locks the subtree itself, the others
    # wait there with intention requests on the way to their own leaves.
    "granular-ancestor": lambda: _Rig(
        GranularLockManager, GranularMode.S, GranularMode.X,
        lambda txn, key: (key,) if txn == 1 else (key, f"leaf{txn}"),
        lambda key: (key,),
    ),
}


class TestLockManagerExpiry:
    """Deadlines, cancellation and crash are the lock table's; the
    subclasses below run the same cases on the granular manager."""

    rig_name = "flat"

    @pytest.fixture
    def rig(self):
        return RIGS[self.rig_name]()

    def test_expire_due_fails_overdue_waiter_only(self, rig):
        rig.acquire(1, "x", rig.X)
        blocked = rig.acquire(2, "x", rig.X, deadline=10.0)
        patient = rig.acquire(3, "x", rig.X)  # no deadline
        assert rig.lm.expire_due(9.9) == []
        assert blocked.pending
        assert rig.lm.expire_due(10.0) == [2]
        assert blocked.failed
        assert isinstance(blocked.error, DeadlineExceeded)
        assert rig.waiting("x") == [3]
        assert patient.pending

    def test_expired_waiter_leaves_no_graph_edges(self, rig):
        rig.acquire(1, "x", rig.X)
        rig.acquire(2, "x", rig.X, deadline=5.0)
        rig.lm.expire_due(5.0)
        # T2 gone: T1 can now wait on something T2 holds without a cycle.
        rig.acquire(2, "y", rig.X)
        waited = rig.acquire(1, "y", rig.X)
        assert waited.pending, "no phantom deadlock from stale edges"

    def test_expiry_unblocks_compatible_waiters_behind(self, rig):
        rig.acquire(1, "x", rig.S)
        stuck = rig.acquire(2, "x", rig.X, deadline=3.0)
        reader = rig.acquire(3, "x", rig.S)  # queued behind the X
        assert reader.pending, "no overtaking past a queued X"
        rig.lm.expire_due(3.0)
        assert stuck.failed
        assert reader.done, "removing the X request re-scans the queue"

    def test_expiry_survives_cascading_callbacks(self, rig):
        """Failing one overdue future may release locks and grant (or
        remove) other overdue requests before the sweep reaches them."""
        rig.acquire(1, "a", rig.X)
        rig.acquire(1, "b", rig.X)
        first = rig.acquire(2, "a", rig.X, deadline=5.0)
        second = rig.acquire(3, "b", rig.X, deadline=5.0)
        # When T2's wait fails, its owner gives up and releases T1 too
        # (modelling an abort cascade) — T3's request gets *granted* while
        # still in the sweep's sights.
        first.add_callback(lambda f: rig.lm.release_all(1) if f.failed else None)
        expired = rig.lm.expire_due(5.0)
        assert expired == [2]
        assert second.done, "granted during the cascade, not expired"

    def test_granted_locks_never_expire(self, rig):
        held = rig.acquire(1, "x", rig.X, deadline=1.0)
        assert held.done
        assert rig.lm.expire_due(100.0) == []
        assert rig.lm.holds(1, rig.resource(1, "x"), rig.X)

    def test_cancel_request_uses_given_error(self, rig):
        rig.acquire(1, "x", rig.X)
        blocked = rig.acquire(2, "x", rig.X)
        behind = rig.acquire(3, "x", rig.X)
        assert rig.lm.cancel_request(2, SiteUnavailable(site_id=7))
        assert isinstance(blocked.error, SiteUnavailable)
        assert rig.waiting("x") == [3]
        assert not rig.lm.cancel_request(2, SiteUnavailable()), "nothing pending"
        rig.lm.release_all(1)
        assert behind.done, "the evicted waiter no longer stands in the queue"

    def test_crash_fails_waiters_and_forgets_everything(self, rig):
        rig.acquire(1, "x", rig.X)
        waiters = [rig.acquire(2, "x", rig.X), rig.acquire(3, "x", rig.S)]
        assert rig.lm.crash(lambda txn_id: SiteUnavailable(site_id=txn_id)) == [2, 3]
        assert [f.error.site_id for f in waiters] == [2, 3]
        assert rig.lm.is_idle() and not rig.lm.waits_for.waiters()
        assert rig.lm.holders(rig.node("x")) == {}
        assert rig.acquire(3, "x", rig.X).done, "a crashed table starts empty"


class TestGranularExpiryAtLeaf(TestLockManagerExpiry):
    rig_name = "granular-leaf"


class TestGranularExpiryAtAncestor(TestLockManagerExpiry):
    rig_name = "granular-ancestor"


def test_granular_scheduler_forwards_the_transaction_deadline():
    """``vc-2pl-granular`` used to drop ``qos.deadline`` on the floor."""
    db = VCGranular2PLScheduler()
    holder, late = db.begin(), db.begin(deadline=5.0)
    db.write(holder, "x", 1).result()
    read = db.read(late, "x")
    assert read.pending
    assert db.locks.expire_due(5.0) == [late.txn_id]
    assert isinstance(read.error, DeadlineExceeded)
    assert late.is_finished and db.locks.waiting(("db", "x")) == []
    # ... and so does a scan, which waits at the root behind the writer's IX.
    scanner = db.begin(deadline=9.0)
    scan = db.scan(scanner)
    assert scan.pending and db.locks.waiting(("db",)) == [scanner.txn_id]
    assert db.locks.expire_due(9.0) == [scanner.txn_id]
    assert isinstance(scan.error, DeadlineExceeded) and scanner.is_finished
