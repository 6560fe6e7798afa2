"""Per-site visibility floors: the witness over multi-primary streams.

A sharded run has N independent GTN counters, so the global commit stream
is not tn-monotone — a single-stream sealing floor would let a lagging
shard's commit land below the sealed frontier and be miscounted as a
duplicate.  The ``dvc.advance`` bridge publishes every site's
``vtnc``/``tnc`` and the witness takes *minimum-over-sites* floors, which
these tests pin down.
"""

from repro.obs import RingBufferExporter, Tracer, attach_tracer
from repro.obs.pipeline import ObsPipeline
from repro.obs.witness import WitnessEngine
from repro.shard import ShardedDatabase
from repro.sim.engine import Simulator


class TestDvcAdvanceBridge:
    def test_every_shard_announces_itself_at_attach(self):
        db = ShardedDatabase(n_shards=3)
        ring = RingBufferExporter()
        handle = attach_tracer(db, Tracer(exporters=[ring]))
        sites = {
            e["site"] for e in ring.events() if e["name"] == "dvc.advance"
        }
        assert sites == {1, 2, 3}
        handle.detach()

    def test_advances_carry_site_vtnc_and_tnc(self):
        db = ShardedDatabase(n_shards=2)
        ring = RingBufferExporter()
        handle = attach_tracer(db, Tracer(exporters=[ring]))
        t = db.begin()
        db.write(t, "s2:x", 1).result()
        db.commit(t).result()
        advances = [
            e for e in ring.events()
            if e["name"] == "dvc.advance" and e["site"] == 2
        ]
        assert advances[-1]["vtnc"] >= t.tn
        assert advances[-1]["tnc"] >= t.tn
        handle.detach()

    def test_detach_unsubscribes_the_site_observers(self):
        db = ShardedDatabase(n_shards=2)
        ring = RingBufferExporter()
        handle = attach_tracer(db, Tracer(exporters=[ring]))
        handle.detach()
        before = len(ring.events())
        t = db.begin()
        db.write(t, "s1:x", 1).result()
        db.commit(t).result()
        assert len(ring.events()) == before, "no events after detach"


class TestWitnessOverShardedStreams:
    def _run_mixed_workload(self, db):
        # Skew the counters: shard 1 commits many times before shard 2's
        # first commit, so shard 2's numbers land far below shard 1's —
        # the stream a single monotone floor would misjudge.
        for i in range(6):
            t = db.begin()
            db.write(t, "s1:hot", i).result()
            db.commit(t).result()
        t = db.begin()
        db.write(t, "s2:cold", 0).result()
        db.commit(t).result()
        cross = db.begin()
        db.write(cross, "s1:hot", 99).result()
        db.write(cross, "s2:cold", 99).result()
        db.commit(cross).result()
        ro = db.begin(read_only=True)
        db.read(ro, "s1:hot").result()
        db.commit(ro).result()

    def test_no_false_duplicates_from_independent_counters(self):
        sim = Simulator()
        witness = WitnessEngine(seal=True)
        db = ShardedDatabase(n_shards=2)
        pipeline = ObsPipeline(sim=sim, witness=witness)
        pipeline.attach(db)
        self._run_mixed_workload(db)
        pipeline.close()
        report = witness.report()
        assert report["duplicate_commits"] == 0
        assert witness.gate_violations() == []

    def test_floors_follow_a_failover_reattach(self):
        sim = Simulator()
        witness = WitnessEngine(seal=True)
        db = ShardedDatabase(n_shards=2, replicas_per_shard=1)
        pipeline = ObsPipeline(sim=sim, ring=4096, witness=witness)
        pipeline.attach(db)
        self._run_mixed_workload(db)
        # Recovery replaces shard 2's VC object; the shard bridges the new
        # incarnation itself, so the one attach keeps following it.
        db.fail_over_shard(2)
        mark = len(pipeline.events())
        t = db.begin()
        db.write(t, "s2:cold", 7).result()
        db.commit(t).result()
        assert any(
            e["name"] == "dvc.advance" and e["site"] == 2 and e["vtnc"] >= t.tn
            for e in pipeline.events()[mark:]
        )
        pipeline.close()
        report = witness.report()
        assert report["duplicate_commits"] == 0
        assert witness.gate_violations() == []
