"""ShardedDatabase: fast path, cross-shard 2PC, snapshot vectors, fail-over."""

import pytest

from repro.distributed import Courier
from repro.distributed.gtn import counter_of
from repro.histories import assert_one_copy_serializable
from repro.shard import ShardedDatabase


@pytest.fixture
def db():
    return ShardedDatabase(n_shards=3)


class TestFastPath:
    def test_single_shard_commit_skips_2pc(self, db):
        t = db.begin()
        db.write(t, "s2:x", 10).result()
        db.commit(t).result()
        assert db.counters.get("shard.fast_commits") == 1
        assert db.counters.get("shard.cross_commits") == 0
        r = db.begin()
        assert db.read(r, "s2:x").result() == 10
        db.commit(r).result()

    def test_fast_commits_leave_no_xlog(self, db):
        for i in range(5):
            t = db.begin()
            db.write(t, f"s1:k{i}", i).result()
            db.commit(t).result()
        assert db.xlog_sizes() == {1: 0, 2: 0, 3: 0}

    def test_shards_advance_independently(self, db):
        # Traffic on shard 1 alone moves only shard 1's watermark.
        before = db.watermarks()
        t = db.begin()
        db.write(t, "s1:x", 1).result()
        db.commit(t).result()
        after = db.watermarks()
        assert after[1] > before[1]
        assert after[2] == before[2] and after[3] == before[3]


class TestCrossShard2PC:
    def test_cross_commit_installs_one_number_everywhere(self, db):
        t = db.begin()
        db.write(t, "s1:a", 1).result()
        db.write(t, "s3:b", 2).result()
        db.commit(t).result()
        assert db.counters.get("shard.cross_commits") == 1
        for key, sid in (("s1:a", 1), ("s3:b", 2)):
            version = db.sites[sid if key == "s1:a" else 3].store.read_latest_committed(key)
            assert version.tn == t.tn

    def test_cross_commit_appends_to_both_xlogs(self, db):
        t = db.begin()
        db.write(t, "s1:a", 1).result()
        db.write(t, "s2:b", 2).result()
        db.commit(t).result()
        entry = (t.tn, (1, 2))
        assert entry in db.sites[1].xlog
        assert entry in db.sites[2].xlog
        assert db.sites[3].xlog == []

    def test_xlog_prunes_once_every_watermark_passes(self, db):
        t = db.begin()
        db.write(t, "s1:a", 1).result()
        db.write(t, "s2:b", 2).result()
        db.commit(t).result()
        # Shard 3's watermark is still below t.tn -> the global floor
        # keeps the entry alive through a read-only begin...
        db.commit(db.begin(read_only=True)).result()
        assert db.xlog_sizes()[1] == 1
        # ...until shard 3 also passes it.
        t3 = db.begin()
        db.write(t3, "s3:c", 3).result()
        db.commit(t3).result()
        db.commit(db.begin(read_only=True)).result()
        assert db.xlog_sizes() == {1: 0, 2: 0, 3: 0}


class TestSnapshotVectors:
    def test_vector_begin_pins_one_component_per_shard(self, db):
        ro = db.begin(read_only=True)
        vector = db.snapshot_vector(ro)
        assert sorted(vector) == [1, 2, 3]
        assert ro.sn == max(vector.values())
        assert db.snapshot_audit(ro) == []
        db.commit(ro).result()

    def test_quiescent_vector_reads_see_all_commits(self, db):
        for sid in (1, 2, 3):
            t = db.begin()
            db.write(t, f"s{sid}:x", sid * 10).result()
            db.commit(t).result()
        ro = db.begin(read_only=True)
        for sid in (1, 2, 3):
            assert db.read(ro, f"s{sid}:x").result() == sid * 10
        db.commit(ro).result()
        assert db.counters.get("shard.ro_blocked") == 0

    def test_mid_flight_cross_commit_is_excluded_atomically(self):
        # Stage the tear precisely: deliver the cross-shard COMMIT at
        # shard 1 but leave shard 2's queued.  A vector begun in that
        # window must exclude the commit *everywhere* (sweep), not raise.
        courier = Courier(manual=True)
        db = ShardedDatabase(n_shards=2, courier=courier)
        seed = db.begin()
        fa = db.write(seed, "s1:a", 0)
        fb = db.write(seed, "s2:b", 0)
        courier.pump()
        fa.result(), fb.result()
        done = db.commit(seed)
        courier.pump()
        done.result()

        cross = db.begin()
        fa = db.write(cross, "s1:a", 1)
        fb = db.write(cross, "s2:b", 1)
        courier.pump()
        fa.result(), fb.result()
        done = db.commit(cross)
        courier.pump(2)  # both prepares -> decision reached, commits queued
        courier.pump(1)  # COMMIT applied at shard 1 only: the torn window
        assert db.sites[1].vc.vtnc >= cross.tn > db.sites[2].vc.vtnc

        ro = db.begin(read_only=True)  # a torn vector would raise here
        vector = db.snapshot_vector(ro)
        assert vector[1] < cross.tn, "the sweep excluded the torn commit"
        assert db.snapshot_audit(ro) == []
        assert db.counters.get("shard.vector_lowered") == 1
        read = db.read(ro, "s1:a")
        courier.pump(channel="read.s1")
        assert read.result() == 0, "pre-commit value: the cut is atomic"
        db.commit(ro).result()

        courier.pump()  # drain shard 2's commit
        done.result()
        fresh = db.begin(read_only=True)
        for key, expect in (("s1:a", 1), ("s2:b", 1)):
            read = db.read(fresh, key)
            courier.pump(channel=f"read.s{key[1]}")
            assert read.result() == expect
        db.commit(fresh).result()
        assert_one_copy_serializable(db.history)

    def test_staleness_counts_sweep_cost_in_commit_ticks(self, db):
        t = db.begin()
        db.write(t, "s1:x", 1).result()
        db.commit(t).result()
        ro = db.begin(read_only=True)
        assert ro.meta["shard.staleness"] == 0, "quiescent vector is fresh"
        db.commit(ro).result()


class TestFailOver:
    def test_committed_data_survives_fail_over(self, db):
        t = db.begin()
        db.write(t, "s2:x", 42).result()
        db.commit(t).result()
        lost = db.fail_over_shard(2)
        assert lost == 0, "everything was forced at commit"
        assert db.sites[2].epoch == 1
        # The fast-forwarded (idle) frontier is not durable, but every
        # committed number must be at or below the recovered watermark.
        assert db.watermarks()[2] >= t.tn
        r = db.begin()
        assert db.read(r, "s2:x").result() == 42
        db.commit(r).result()

    def test_fail_over_rebuilds_the_xlog_from_the_wal(self, db):
        t = db.begin()
        db.write(t, "s1:a", 1).result()
        db.write(t, "s2:b", 2).result()
        db.commit(t).result()
        entry = (t.tn, (1, 2))
        db.fail_over_shard(1)
        assert entry in db.sites[1].xlog, "the durable twin was replayed"
        ro = db.begin(read_only=True)
        assert db.snapshot_audit(ro) == []
        db.commit(ro).result()

    def test_other_shards_keep_committing_after_a_fail_over(self, db):
        db.fail_over_shard(3)
        for sid in (1, 2):
            t = db.begin()
            db.write(t, f"s{sid}:x", sid).result()
            db.commit(t).result()
        assert db.counters.get("shard.fast_commits") == 2
        assert_one_copy_serializable(db.history)


class TestReplicaChains:
    def test_markers_carry_the_watermark_to_replicas(self):
        db = ShardedDatabase(n_shards=2, replicas_per_shard=1)
        t = db.begin()
        db.write(t, "s1:x", 7).result()
        db.commit(t).result()
        node = db.sites[1]
        for replica in node.replicas.values():
            assert replica.vtnc == node.vc.vtnc
        # Shard 2 saw no traffic; its replica sits at the initial mark.
        node2 = db.sites[2]
        for replica in node2.replicas.values():
            assert replica.vtnc == node2.vc.vtnc

    def test_fail_over_bumps_the_epoch_on_the_chain(self):
        db = ShardedDatabase(n_shards=2, replicas_per_shard=2)
        t = db.begin()
        db.write(t, "s1:x", 1).result()
        db.commit(t).result()
        db.fail_over_shard(1)
        node = db.sites[1]
        assert node.shipper is not None and node.shipper.epoch == 1
        for replica in node.replicas.values():
            assert replica.epoch == 1
            # Replica watermarks are monotone; the recovered primary may
            # sit below the fast-forwarded frontier the markers shipped,
            # but never above it — and both cover every committed number.
            assert replica.vtnc >= node.vc.vtnc
            assert replica.vtnc >= t.tn


class TestDegenerateSingleShard:
    def test_one_shard_behaves_like_the_centralized_database(self):
        # The same scripted workload on a 1-shard cluster and on the
        # centralized scheduler: identical values, identical commit
        # counters (GTNs normalized via counter_of).
        from repro.protocols.registry import make_scheduler

        sharded = ShardedDatabase(n_shards=1)
        central = make_scheduler("vc-2pl")
        sharded_tns, central_tns = [], []
        for db, tns in ((sharded, sharded_tns), (central, central_tns)):
            for i in range(4):
                t = db.begin()
                db.write(t, "k", i).result()
                db.write(t, f"other{i}", i * i).result()
                db.commit(t).result()
                tns.append(t.tn)
            ro = db.begin(read_only=True)
            assert db.read(ro, "k").result() == 3
            db.commit(ro).result()
        assert [counter_of(tn) for tn in sharded_tns] == central_tns
        assert sharded.counters.get("shard.fast_commits") == 4
        assert sharded.counters.get("shard.cross_commits") == 0
        assert_one_copy_serializable(sharded.history)

    def test_one_shard_vector_is_a_scalar(self):
        db = ShardedDatabase(n_shards=1)
        t = db.begin()
        db.write(t, "x", 1).result()
        db.commit(t).result()
        ro = db.begin(read_only=True)
        assert list(db.snapshot_vector(ro)) == [1]
        assert ro.sn == db.watermarks()[1]
        assert ro.meta["shard.staleness"] == 0
        db.commit(ro).result()
