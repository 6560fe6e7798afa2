"""Tests for the adaptive (2PL <-> OCC) scheduler."""

import pytest

from repro.bench.runner import SimConfig, run_simulation
from repro.histories import assert_one_copy_serializable
from repro.protocols.adaptive import AdaptiveVCScheduler
from repro.workload.mixes import balanced, write_heavy_hotspot


def drain_window(db, n=None):
    """Commit enough trivially-conflicting-free txns to fill the window."""
    n = n if n is not None else db._outcomes.maxlen
    for i in range(n):
        t = db.begin()
        db.write(t, f"unique{db.counters.get('begin.rw')}-{i}", 1).result()
        db.commit(t).result()


class TestConstruction:
    def test_defaults(self):
        db = AdaptiveVCScheduler()
        assert db.mode == "occ"
        assert db.switches == []

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveVCScheduler(initial_mode="mvcc")

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveVCScheduler(high_watermark=0.1, low_watermark=0.5)

    def test_engines_share_vc_and_store(self):
        db = AdaptiveVCScheduler()
        assert db._engines["2pl"].vc is db.vc is db._engines["occ"].vc
        assert db._engines["2pl"].store is db.store


class TestBasicOperation:
    def test_occ_mode_roundtrip(self):
        db = AdaptiveVCScheduler(initial_mode="occ")
        t = db.begin()
        db.write(t, "x", 1).result()
        db.commit(t).result()
        r = db.begin(read_only=True)
        assert db.read(r, "x").result() == 1
        db.commit(r).result()

    def test_2pl_mode_roundtrip(self):
        db = AdaptiveVCScheduler(initial_mode="2pl")
        t = db.begin()
        db.write(t, "x", 1).result()
        db.commit(t).result()
        assert db.store.read_latest_committed("x").value == 1

    def test_engine_finish_returns_the_admission_token(self):
        # begin() admits on the adaptive scheduler; the engine that runs the
        # transaction must hand the token back there, on commit and abort.
        from repro.qos.admission import AdmissionController

        for mode in ("occ", "2pl"):
            db = AdaptiveVCScheduler(initial_mode=mode)
            db.admission = AdmissionController(capacity=2)
            for finish in (db.commit, db.abort, db.commit):
                t = db.begin()
                db.write(t, "x", 1).result()
                finish(t)
            assert db.admission.in_flight == 0
            assert db.active_transactions() == []

    def test_read_only_path_is_mode_independent(self):
        for mode in ("occ", "2pl"):
            db = AdaptiveVCScheduler(initial_mode=mode)
            t = db.begin()
            db.write(t, "x", 5).result()
            db.commit(t).result()
            r = db.begin(read_only=True)
            assert db.read(r, "x").result() == 5
            db.commit(r).result()
            assert db.counters.get("cc.ro") == 0


class TestSwitching:
    def test_high_abort_rate_switches_to_2pl(self):
        db = AdaptiveVCScheduler(window=10, high_watermark=0.3)
        # Conflict storm under OCC: pairs racing on one counter.  Stop the
        # racing pattern once the scheduler adapts (it would block under
        # 2PL — which is the point of the adaptation).
        for _ in range(20):
            if db.mode == "2pl":
                break
            a, b = db.begin(), db.begin()
            va = db.read(a, "c").result() or 0
            vb = db.read(b, "c").result() or 0
            db.write(a, "c", va + 1).result()
            db.write(b, "c", vb + 1).result()
            db.commit(a)
            db.commit(b)  # second one fails validation
        assert db.mode == "2pl"
        assert db.counters.get("adaptive.switch_to_2pl") == 1

    def test_calm_workload_switches_back_to_occ(self):
        db = AdaptiveVCScheduler(initial_mode="2pl", window=10, low_watermark=0.1)
        drain_window(db, 10)
        assert db.mode == "occ"
        assert db.switches[-1][1] == "occ"

    def test_switch_quiesces_around_inflight_transactions(self):
        db = AdaptiveVCScheduler(
            initial_mode="2pl", window=4, high_watermark=0.6, low_watermark=0.5
        )
        lingering = db.begin()           # old-mode txn stays in flight
        db.write(lingering, "L", 1).result()
        drain_window(db, 4)              # policy wants OCC now
        assert db.mode == "2pl", "switch deferred while 2PL txn in flight"
        started = db.begin()             # still started under the old mode
        assert started.private.engine is db._engines["2pl"]
        db.commit(started).result()
        db.commit(lingering).result()    # drain completes...
        t = db.begin()                   # ...and the switch lands
        assert db.mode == "occ"
        assert t.private.engine is db._engines["occ"]
        db.commit(t).result()

    def test_no_switch_below_window(self):
        db = AdaptiveVCScheduler(window=50)
        drain_window(db, 10)
        assert db.switches == []


class TestCorrectnessAcrossSwitches:
    def test_history_serializable_across_mode_changes(self):
        db = AdaptiveVCScheduler(window=6, high_watermark=0.2, low_watermark=0.1)
        # Alternate conflict storms (drive to 2PL) and calm phases (back to
        # OCC), checking the unified history at the end.
        for phase in range(4):
            if phase % 2 == 0:
                for _ in range(8):
                    if db.mode == "2pl":
                        # Under 2PL the racing pattern would block; run the
                        # increments back-to-back instead.
                        t = db.begin()
                        v = db.read(t, "hot").result() or 0
                        db.write(t, "hot", v + 1).result()
                        db.commit(t).result()
                        continue
                    a, b = db.begin(), db.begin()
                    va = db.read(a, "hot").result() or 0
                    vb = db.read(b, "hot").result() or 0
                    db.write(a, "hot", va + 1).result()
                    db.write(b, "hot", vb + 1).result()
                    db.commit(a)
                    db.commit(b)
            else:
                drain_window(db, 8)
        assert len(db.switches) >= 1, "at least one adaptation happened"
        report = assert_one_copy_serializable(db.history)
        assert report.serializable

    def test_simulated_run_is_serializable_and_adapts(self):
        db = AdaptiveVCScheduler(window=20, high_watermark=0.15, low_watermark=0.02)
        metrics = run_simulation(
            db, write_heavy_hotspot(seed=3), SimConfig(duration=400.0, n_clients=10)
        )
        assert metrics.serializable is True
        assert metrics.counter("cc.ro") == 0, "RO path untouched by adaptation"

    def test_balanced_run_deterministic(self):
        def once():
            db = AdaptiveVCScheduler(window=10)
            m = run_simulation(db, balanced(seed=9), SimConfig(duration=200.0, n_clients=6))
            return m.commits, m.aborts, tuple(db.switches)

        assert once() == once()
