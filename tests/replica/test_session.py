"""Session routing tests: RW to the primary, RO to replicas, staleness QoS."""

import pytest

from repro.errors import Overloaded, ReplicaLagging, is_retryable
from repro.qos import AdmissionController
from repro.replica.cluster import ReplicaCluster
from repro.replica.session import ReplicatedDatabase


def _loaded_db(**kwargs):
    db = ReplicatedDatabase(n_replicas=2, **kwargs)
    with db.transaction() as txn:
        txn.write("x", 41)
    return db


class TestRouting:
    def test_snapshot_served_from_replica(self):
        db = _loaded_db()
        with db.snapshot() as snap:
            assert snap.read("x") == 41
            assert snap.txn.meta["replica.id"] in db.cluster.replicas
        assert db.cluster.counters.get("replica.ro.served") == 1

    def test_rw_routed_to_primary(self):
        db = _loaded_db()
        with db.transaction() as txn:
            txn.write("x", 42)
        assert db.cluster.primary.vc.vtnc == 2

    def test_primary_fallback_with_no_replicas(self):
        db = ReplicatedDatabase(n_replicas=0)
        with db.transaction() as txn:
            txn.write("x", 1)
        with db.snapshot() as snap:
            assert snap.read("x") == 1
        assert db.cluster.counters.get("replica.ro.primary_fallback") == 1

    def test_session_follows_promotion(self):
        db = _loaded_db()
        db.cluster.fail_over()
        with db.transaction() as txn:   # binds to the *current* primary
            txn.write("x", 42)
        with db.snapshot() as snap:
            assert snap.read("x") == 42


class TestReadOnlyNeverDegrades:
    """The paper's fast-path guarantee, preserved across the replica tier."""

    def test_ro_begin_acquires_no_locks(self):
        db = _loaded_db()
        primary_blocks = db.cluster.primary.locks.blocks
        for _ in range(5):
            with db.snapshot() as snap:
                snap.read("x")
        assert db.cluster.primary.locks.is_idle()
        assert db.cluster.primary.locks.blocks == primary_blocks
        for replica in db.cluster.replicas.values():
            assert replica.counters.get("cc.ro") == 0
            assert replica.counters.get("block.ro") == 0

    def test_ro_begin_bypasses_saturated_admission(self):
        db = _loaded_db(admission=AdmissionController(capacity=1))
        hog = db.cluster.primary.begin()  # takes the only token
        with pytest.raises(Overloaded):
            db.cluster.primary.begin()    # RW sheds...
        with db.snapshot() as snap:       # ...RO does not
            assert snap.read("x") == 41
        db.cluster.primary.abort(hog)


class TestStalenessPolicies:
    def _lagging_db(self, **kwargs):
        db = _loaded_db(**kwargs)
        # Desubscribe the replicas so further commits open a lag window.
        db.cluster.log.unsubscribe_force(db.cluster._ship_token)
        for _ in range(5):
            with db.transaction() as txn:
                txn.write("x", 100)
        return db

    def test_redirect_serves_from_primary(self):
        db = self._lagging_db(max_staleness=2, stale_policy="redirect")
        with db.snapshot() as snap:
            assert snap.read("x") == 100  # fresh: the primary answered
        assert db.cluster.counters.get("replica.ro.redirect") == 1

    def test_stale_serves_from_replica_marked(self):
        db = self._lagging_db(max_staleness=2, stale_policy="stale")
        with db.snapshot() as snap:
            assert snap.read("x") == 41   # stale but snapshot-consistent
            assert snap.txn.meta["replica.stale"] is True
            assert snap.txn.meta["replica.lag"] == 5
        assert db.cluster.counters.get("replica.ro.stale") == 1

    def test_reject_raises_retryable(self):
        db = self._lagging_db(max_staleness=2, stale_policy="reject")
        with pytest.raises(ReplicaLagging) as info:
            db.snapshot()
        assert is_retryable(info.value)
        assert db.cluster.counters.get("replica.ro.reject") == 1

    def test_per_call_override(self):
        db = self._lagging_db(max_staleness=2, stale_policy="redirect")
        with db.snapshot(stale_policy="stale") as snap:
            assert snap.read("x") == 41

    def test_within_bound_served_from_replica(self):
        db = _loaded_db(max_staleness=2, stale_policy="reject")
        with db.snapshot() as snap:   # lag is 0: no policy fires
            assert snap.read("x") == 41
        assert db.cluster.counters.get("replica.ro.served") == 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="stale_policy"):
            ReplicatedDatabase(n_replicas=1, stale_policy="block")
        db = _loaded_db()
        with pytest.raises(ValueError, match="stale_policy"):
            db.snapshot(stale_policy="wait")
