"""attach_tracer / detach across the scheduler component graph."""

from repro.obs import NULL_TRACER, RingBufferExporter, Tracer, attach_tracer
from repro.obs.instrument import subscribe_version_control
from repro.protocols.registry import make_scheduler


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
