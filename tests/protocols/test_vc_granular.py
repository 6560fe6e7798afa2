"""Tests for VC + 2PL over intention locks (the swapped-CC demonstration)."""

import pytest

from repro.errors import ProtocolError
from repro.histories import assert_one_copy_serializable
from repro.protocols.vc_granular import VCGranular2PLScheduler
from tests.stress.driver import RandomDriver


@pytest.fixture
def db():
    return VCGranular2PLScheduler()


def seed(db, n=5):
    setup = db.begin()
    for i in range(n):
        db.write(setup, f"k{i}", i).result()
    db.commit(setup).result()


class TestFigure4Semantics:
    """The scheduler must behave exactly like vc-2pl at the protocol level."""

    def test_roundtrip(self, db):
        t = db.begin()
        db.write(t, "x", 1).result()
        db.commit(t).result()
        assert t.tn == 1
        r = db.begin(read_only=True)
        assert db.read(r, "x").result() == 1
        db.commit(r).result()

    def test_writer_blocks_reader(self, db):
        w = db.begin()
        db.write(w, "x", 1).result()
        r = db.begin()
        f = db.read(r, "x")
        assert f.pending
        db.commit(w).result()
        assert f.result() == 1

    def test_deadlock_resolution(self, db):
        t1, t2 = db.begin(), db.begin()
        db.write(t1, "x", 1).result()
        db.write(t2, "y", 2).result()
        db.write(t1, "y", 3)
        f = db.write(t2, "x", 4)
        assert f.failed
        db.commit(t1).result()
        assert_one_copy_serializable(db.history)

    def test_ro_takes_no_locks(self, db):
        seed(db)
        r = db.begin(read_only=True)
        db.read(r, "k0").result()
        db.commit(r).result()
        assert db.counters.get("cc.ro") == 0
        assert db.locks.is_idle()


class TestScan:
    def test_rw_scan_reads_everything_under_one_root_lock(self, db):
        seed(db, 8)
        grants_before = db.locks.grants
        t = db.begin()
        values = db.scan(t).result()
        assert len(values) == 8
        assert db.locks.grants == grants_before + 1, "one root S, no leaf locks"
        db.commit(t).result()

    def test_scan_blocks_behind_concurrent_writer(self, db):
        seed(db)
        w = db.begin()
        db.write(w, "k0", 99).result()
        t = db.begin()
        f = db.scan(t)
        assert f.pending, "root S waits for the writer's IX to clear"
        db.commit(w).result()
        assert f.result()["k0"] == 99
        db.commit(t).result()
        assert_one_copy_serializable(db.history)

    def test_writer_blocks_behind_scanner(self, db):
        seed(db)
        t = db.begin()
        db.scan(t).result()
        w = db.begin()
        f = db.write(w, "k0", 99)
        assert f.pending
        db.commit(t).result()
        assert f.done
        db.commit(w).result()

    def test_scan_then_write_same_txn(self, db):
        """SIX conversion: scan everything, then update one key."""
        seed(db)
        t = db.begin()
        values = db.scan(t).result()
        db.write(t, "k0", values["k0"] + 100).result()
        db.commit(t).result()
        r = db.begin(read_only=True)
        assert db.read(r, "k0").result() == 100

    def test_ro_scan_is_lock_free(self, db):
        seed(db)
        w = db.begin()
        db.write(w, "k0", 99).result()  # active writer holds X
        r = db.begin(read_only=True)
        values = db.scan(r).result()
        assert values["k0"] == 0, "snapshot scan ignores the writer"
        db.commit(w).result()
        db.commit(r).result()

    def test_snapshot_scan_rejects_rw(self, db):
        t = db.begin()
        with pytest.raises(ProtocolError):
            db.snapshot_scan(t)


class TestStress:
    @pytest.mark.parametrize("seed_value", range(4))
    def test_random_interleavings_serializable(self, seed_value):
        db = VCGranular2PLScheduler()
        driver = RandomDriver(db, seed=seed_value)
        driver.run(250)
        assert_one_copy_serializable(db.history)
        assert db.locks.is_idle()
        assert db.counters.get("cc.ro") == 0


class TestLockEventsMatchTheFlatManager:
    """Both managers are one lock table, so a contended run leaves the same
    ``lock.*`` story: every wait ends, and ends visibly."""

    @staticmethod
    def _events(name):
        from repro.bench.runner import SimConfig, run_simulation
        from repro.obs.exporters import RingBufferExporter
        from repro.obs.tracer import Tracer
        from repro.protocols.registry import make_scheduler
        from repro.workload.mixes import contended_small

        ring = RingBufferExporter(capacity=1_000_000)
        run_simulation(
            make_scheduler(name),
            contended_small(seed=3),
            SimConfig(duration=200),
            tracer=Tracer([ring]),
        )
        return ring.events()

    def test_every_lock_wait_ends_in_a_waited_grant_a_victim_or_an_abort(self):
        from repro.obs.analyze import index_trace

        events = self._events("vc-2pl-granular")
        flat = self._events("vc-2pl")

        def waited(stream):
            return sum(e["name"] == "lock.grant" and e["waited"] for e in stream)

        assert waited(events) == waited(flat) > 0
        waiting = set()
        for event in events:
            if event["name"] == "lock.block":
                assert event["txn"] not in waiting, "one pending request at a time"
                waiting.add(event["txn"])
            elif event["name"] == "lock.grant" and event["waited"]:
                waiting.remove(event["txn"])
            elif event["name"] == "lock.deadlock":
                waiting.remove(event["victim"])
            elif event["name"] == "txn.abort":  # user abort cancels the request
                waiting.discard(event["txn"])
        assert not waiting, f"lock.block never closed for {sorted(waiting)}"

        def wait_spans(node):
            own = [node] if node.name == "lock.wait" else []
            return own + [s for child in node.children for s in wait_spans(child)]

        spans = [s for root in index_trace(events).span_roots() for s in wait_spans(root)]
        assert len(spans) == waited(events)
        assert all(span.end is not None for span in spans)
        releases = [e for e in events if e["name"] == "lock.release"]
        assert releases and all(("db",) in map(tuple, e["keys"]) for e in releases)
