"""attach_tracer / detach across the scheduler component graph, and the
parts a topology builds or drops after the attach."""

from repro.cc.locks import LockMode
from repro.distributed import DistributedVCDatabase
from repro.distributed.courier import Courier
from repro.obs import NULL_TRACER, RingBufferExporter, Tracer, attach_tracer
from repro.obs.instrument import subscribe_version_control
from repro.protocols.registry import make_scheduler
from repro.replica.cluster import ReplicaCluster
from repro.replica.quorum import ReplicationMode


def traced(name="vc-2pl"):
    scheduler = make_scheduler(name)
    ring = RingBufferExporter()
    tracer = Tracer(exporters=[ring])
    handle = attach_tracer(scheduler, tracer)
    return scheduler, ring, tracer, handle


def run_one_txn(db):
    txn = db.begin()
    db.write(txn, "x", 1).result()
    db.commit(txn).result()
    return txn


class TestAttach:
    def test_wires_every_component(self):
        db, _, tracer, handle = traced()
        assert db.tracer is tracer
        assert db.counters.tracer is tracer
        assert db.locks.tracer is tracer
        assert db.locks.waits_for.tracer is tracer
        assert db.gc.tracer is tracer
        assert len(db.vc._observers) == 1
        handle.detach()

    def test_wal_scheduler_instruments_log(self):
        db, ring, tracer, handle = traced("vc-2pl-wal")
        assert db.log.tracer is tracer
        run_one_txn(db)
        names = {e["name"] for e in ring.events()}
        assert "wal.append" in names and "wal.force" in names
        handle.detach()

    def test_adaptive_recurses_into_engines_sharing_one_vc_observer(self):
        db, ring, tracer, handle = traced("vc-adaptive")
        for engine in db._engines.values():
            assert engine.tracer is tracer
            assert getattr(engine, "locks", None) is None or engine.locks.tracer is tracer
        assert len(db.vc._observers) == 1  # shared VC subscribed exactly once
        run_one_txn(db)
        names = {e["name"] for e in ring.events()}
        assert {"txn.begin", "txn.commit", "vc.register", "vc.advance"} <= names
        handle.detach()

    def test_granular_lock_manager_emits(self):
        db, ring, _, handle = traced("vc-2pl-granular")
        run_one_txn(db)
        assert any(e["name"] == "lock.grant" for e in ring.events())
        handle.detach()

    def test_lifecycle_events_for_one_committed_txn(self):
        db, ring, _, handle = traced()
        txn = run_one_txn(db)
        names = [e["name"] for e in ring.events()]
        for expected in ("txn.begin", "cc.call", "lock.grant", "vc.register",
                         "vc.advance", "txn.commit"):
            assert expected in names, expected
        begin = next(e for e in ring.events() if e["name"] == "txn.begin")
        assert begin["txn"] == txn.txn_id and begin["cls"] == "rw"
        register = next(e for e in ring.events() if e["name"] == "vc.register")
        assert register["number"] == txn.tn
        handle.detach()


class TestDetach:
    def test_detach_restores_null_tracer_and_silences_vc(self):
        db, ring, _, handle = traced()
        run_one_txn(db)
        handle.detach()
        assert db.tracer is NULL_TRACER
        assert db.counters.tracer is NULL_TRACER
        assert db.locks.tracer is NULL_TRACER
        assert db.gc.tracer is NULL_TRACER
        assert db.vc._observers == []
        before = len(ring.events())
        run_one_txn(db)  # post-detach activity must not reach the exporter
        assert len(ring.events()) == before

    def test_detach_is_idempotent(self):
        db, _, _, handle = traced()
        handle.detach()
        handle.detach()
        assert db.vc._observers == []

    def test_context_manager_detaches(self):
        db = make_scheduler("vc-2pl")
        tracer = Tracer(exporters=[RingBufferExporter()])
        with attach_tracer(db, tracer):
            assert db.tracer is tracer
        assert db.tracer is NULL_TRACER


class TestNullTracerAttach:
    def test_null_tracer_subscribes_no_vc_observer(self):
        db = make_scheduler("vc-2pl")
        assert subscribe_version_control(db.vc, NULL_TRACER) is None
        handle = attach_tracer(db, NULL_TRACER)
        assert db.vc._observers == []
        handle.detach()


def ring_tracer():
    ring = RingBufferExporter()
    return ring, Tracer(exporters=[ring])


def names_after(ring, mark):
    return [e["name"] for e in ring.events()[mark:]]


class TestRestartedSite:
    """Recovery rebuilds a site's lock manager and VC; one attach must keep
    seeing the site (the traced fault drill used to go dark on every site
    it restarted, and the witness's min-over-sites floor stuck there)."""

    def test_a_restarted_dvc_site_keeps_emitting(self):
        db = DistributedVCDatabase(n_sites=2)
        ring, tracer = ring_tracer()
        handle = attach_tracer(db, tracer)
        db.crash_restart_site(1)
        mark = len(ring.events())
        t = db.begin()
        db.write(t, "s1:x", 1).result()
        db.commit(t).result()
        after = ring.events()[mark:]
        assert {"lock.grant", "lock.release"} <= {e["name"] for e in after}
        assert any(
            e["name"] == "dvc.advance" and e["site"] == 1 and e["vtnc"] >= t.tn
            for e in after
        )
        handle.detach()

    def test_a_replaced_lock_manager_emits_nothing(self):
        db = DistributedVCDatabase(n_sites=2)
        ring, tracer = ring_tracer()
        handle = attach_tracer(db, tracer)
        replaced = db.sites[1].locks
        db.crash_restart_site(1)
        assert db.sites[1].locks.tracer is tracer
        mark = len(ring.events())
        replaced.acquire(999, "s1:x", LockMode.EXCLUSIVE)
        replaced.release_all(999)
        assert names_after(ring, mark) == []
        handle.detach()


def _commit(db, key, value):
    txn = db.begin()
    db.write(txn, key, value).result()
    db.commit(txn).result()
    return txn


class TestFailedOverCluster:
    """A fail-over builds a primary, shipper and gate: traced from birth.
    What it deposes goes quiet, and detach still reaches every part."""

    def _traced_cluster(self, **kwargs):
        cluster = ReplicaCluster(n_replicas=2, **kwargs)
        ring, tracer = ring_tracer()
        return cluster, ring, tracer, attach_tracer(cluster, tracer)

    def test_promoted_primary_new_shipper_and_late_replica_are_traced(self):
        cluster, ring, tracer, handle = self._traced_cluster()
        _commit(cluster.primary, "x", 1)
        cluster.fail_over()
        late = cluster.add_replica()
        assert cluster.primary.tracer is tracer
        assert cluster.shipper.tracer is tracer
        assert late.tracer is tracer and late.counters.tracer is tracer
        mark = len(ring.events())
        txn = _commit(cluster.primary, "y", 2)
        after = ring.events()[mark:]
        assert any(e["name"] == "txn.commit" and e["txn"] == txn.txn_id for e in after)
        assert any(e["name"] == "vc.advance" and e["number"] == txn.tn for e in after)
        shipped_to = {e["replica"] for e in after if e["name"] == "replica.ship"}
        assert late.replica_id in shipped_to
        handle.detach()

    def test_quorum_fail_over_traces_the_new_gate(self):
        cluster, _, tracer, handle = self._traced_cluster(
            courier=Courier(manual=True), mode=ReplicationMode.QUORUM
        )
        old_gate = cluster.gate
        cluster.fail_over(crash_old=True)
        assert cluster.gate is not old_gate and cluster.gate.tracer is tracer
        assert old_gate.tracer is NULL_TRACER
        handle.detach()

    def test_a_deposed_primary_left_running_emits_nothing(self):
        cluster, ring, _, handle = self._traced_cluster()
        deposed = cluster.primary
        cluster.fail_over(crash_old=False)
        mark = len(ring.events())
        _commit(deposed, "pinned", 1)
        # Only the survivors speak: they fence the deposed primary's segment.
        assert set(names_after(ring, mark)) == {"replica.segment_stale"}
        handle.detach()

    def test_detach_after_a_fail_over_leaves_no_part_traced(self):
        cluster, ring, tracer, handle = self._traced_cluster()
        deposed = cluster.primary
        _commit(deposed, "x", 1)
        promoted = cluster.fail_over()
        cluster.add_replica()
        parts = [
            cluster, cluster.counters, cluster.courier, cluster.shipper,
            promoted, cluster.primary, cluster.primary.counters,
            cluster.primary.locks, cluster.primary.log, *cluster.replicas.values(),
        ]
        assert [part for part in parts if part.tracer is not tracer] == []
        assert deposed.tracer is deposed.log.tracer is NULL_TRACER
        handle.detach()
        assert [part for part in parts if part.tracer is not NULL_TRACER] == []
        assert cluster.primary.vc._observers == []
        mark = len(ring.events())
        _commit(cluster.primary, "y", 2)
        assert names_after(ring, mark) == []
