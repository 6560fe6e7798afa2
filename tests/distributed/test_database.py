"""Tests for the distributed VC database (paper Section 6 / ref [3])."""

import zlib

import pytest

from repro.distributed import Courier, DistributedMV2PL, DistributedVCDatabase
from repro.errors import ProtocolError
from repro.histories import assert_one_copy_serializable
from repro.storage.wal import RecordKind


@pytest.fixture
def db():
    return DistributedVCDatabase(n_sites=3)


class TestPlacement:
    def test_explicit_prefix_routing(self, db):
        assert db.site_of_key("s1:x").site_id == 1
        assert db.site_of_key("s3:y").site_id == 3

    def test_hash_routing_is_stable(self, db):
        first = db.site_of_key("unprefixed").site_id
        assert db.site_of_key("unprefixed").site_id == first

    @pytest.mark.parametrize("n_sites", [1, 3])
    def test_remembered_placement_is_the_rule(self, n_sites):
        db = DistributedVCDatabase(n_sites=n_sites)
        for key in PLACEMENT_KEYS:
            expected = uncached_site_id(key, n_sites)
            assert db.site_of_key(key).site_id == expected, key
            assert db.site_of_key(key).site_id == expected, key  # remembered

    def test_a_repeat_lookup_does_not_place_again(self, db):
        placed = []
        place = db._place
        db._place = lambda key: placed.append(key) or place(key)
        for _ in range(3):
            for key in PLACEMENT_KEYS:
                db.site_of_key(key)
        assert placed == PLACEMENT_KEYS

    @pytest.mark.parametrize("protocol", [DistributedVCDatabase, DistributedMV2PL])
    def test_each_site_commits_its_writes_in_write_order(self, protocol):
        """A commit leg gets exactly what filtering the write set by
        placement gave it: the site's keys in first-write order, last value."""
        db = protocol(n_sites=3)
        t = db.begin()
        for key, value in [
            ("s2:b", 1), ("s1:a", 2), (7, 3), ("s2:c", 4), (("t", 1), 5),
            ("s1:a", 6), ("key", 7), ("s2:b", 8),
        ]:
            db.write(t, key, value).result()
        db.read(t, "s3:r").result()  # a participant that writes nothing
        old_filter = {
            sid: [(k, v) for k, v in t.write_set.items() if db.site_of_key(k) is site]
            for sid, site in db.sites.items()
        }
        assert t.private.participants == {1, 2, 3}
        for sid in db.sites:
            assert list(t.private.writes_at(sid)) == old_filter[sid], sid
        db.commit(t).result()
        for sid, site in db.sites.items():
            logged = [
                (r.key, r.value) for r in site.wal.durable_records()
                if r.kind is RecordKind.WRITE and r.txn_id == t.txn_id
            ]
            assert logged == old_filter[sid], sid
        assert old_filter == {
            1: [("s1:a", 6), (7, 3), (("t", 1), 5)],
            2: [("s2:b", 8), ("s2:c", 4), ("key", 7)],
            3: [],
        }


#: Keys with a valid "s<id>:" prefix, an out-of-range or malformed one, no
#: prefix, and int and tuple keys.
PLACEMENT_KEYS = [
    "s1:x", "s2:y", "s3:z", "s0:x", "s4:x", "s9:x", "sx:y", "s:y", "s1",
    "plain", "", 0, 7, 12345, -3, ("a", 1), (3, "b"),
]


def uncached_site_id(key, n_sites: int) -> int:
    """The placement rule written out: a valid prefix, else crc32 of str(key)."""
    if isinstance(key, str) and key[:1] == "s" and ":" in key:
        prefix = key.split(":", 1)[0][1:]
        if prefix.isdigit() and 1 <= int(prefix) <= n_sites:
            return int(prefix)
    return zlib.crc32(str(key).encode()) % n_sites + 1


class TestReadWriteTransactions:
    def test_single_site_commit(self, db):
        t = db.begin()
        db.write(t, "s1:x", 10).result()
        db.commit(t).result()
        assert t.tn is not None
        r = db.begin()
        assert db.read(r, "s1:x").result() == 10
        db.commit(r).result()

    def test_cross_site_commit_uses_one_number_everywhere(self, db):
        t = db.begin()
        db.write(t, "s1:x", 1).result()
        db.write(t, "s2:y", 2).result()
        db.write(t, "s3:z", 3).result()
        db.commit(t).result()
        for key, site in (("s1:x", 1), ("s2:y", 2), ("s3:z", 3)):
            version = db.sites[site].store.read_latest_committed(key)
            assert version.tn == t.tn, "same global number at every site"

    def test_number_agreement_takes_max_of_holds(self, db):
        # Pre-advance site 2's counter with local traffic.
        for _ in range(5):
            t = db.begin()
            db.write(t, "s2:local", 0).result()
            db.commit(t).result()
        cross = db.begin()
        db.write(cross, "s1:a", 1).result()
        db.write(cross, "s2:b", 2).result()
        db.commit(cross).result()
        from repro.distributed.gtn import counter_of
        assert counter_of(cross.tn) >= 6, "number reflects the busiest site"

    def test_conflicting_writers_serialize_by_locks(self, db):
        t1 = db.begin()
        db.write(t1, "s1:x", 1).result()
        t2 = db.begin()
        f = db.write(t2, "s1:x", 2)
        assert f.pending
        db.commit(t1).result()
        assert f.done
        db.commit(t2).result()
        assert t2.tn > t1.tn
        assert db.sites[1].store.read_latest_committed("s1:x").value == 2

    def test_cross_site_deadlock_detected(self, db):
        t1, t2 = db.begin(), db.begin()
        db.write(t1, "s1:x", 1).result()
        db.write(t2, "s2:y", 2).result()
        f1 = db.write(t1, "s2:y", 3)
        assert f1.pending
        f2 = db.write(t2, "s1:x", 4)  # cycle spans sites 1 and 2
        assert f2.failed
        db.commit(t1).result()
        assert_one_copy_serializable(db.history)

    def test_abort_releases_everything(self, db):
        t = db.begin()
        db.write(t, "s1:x", 1).result()
        db.write(t, "s2:y", 2).result()
        db.abort(t)
        assert db.sites[1].locks.is_idle()
        assert db.sites[2].locks.is_idle()
        r = db.begin()
        assert db.read(r, "s1:x").result() is None


class TestGlobalReadOnly:
    def test_no_a_priori_site_knowledge_needed(self, db):
        """Contrast with ref [8]: reads may roam to any site."""
        t = db.begin()
        db.write(t, "s2:y", 7).result()
        db.commit(t).result()
        ro = db.begin(read_only=True, origin_site=1, fresh=True)
        # Nothing was declared at begin; the read still works.
        assert db.read(ro, "s2:y").result() == 7
        db.commit(ro).result()

    def test_ro_takes_no_locks_anywhere(self, db):
        t = db.begin()
        db.write(t, "s1:x", 1).result()  # X lock held at site 1
        ro = db.begin(read_only=True, origin_site=2)
        f = db.read(ro, "s1:x")
        assert f.done, "read-only read ignores the lock"
        assert f.result() is None
        db.commit(t).result()
        db.commit(ro).result()

    def test_ro_snapshot_is_globally_consistent(self, db):
        """The distributed flagship property: a reader never sees half of a
        distributed transaction."""
        t0 = db.begin()
        db.write(t0, "s1:x", "old").result()
        db.write(t0, "s2:y", "old").result()
        db.commit(t0).result()
        ro = db.begin(read_only=True, origin_site=3)
        t1 = db.begin()
        db.write(t1, "s1:x", "new").result()
        db.write(t1, "s2:y", "new").result()
        db.commit(t1).result()
        x = db.read(ro, "s1:x").result()
        y = db.read(ro, "s2:y").result()
        assert (x, y) == ("old", "old"), "all-or-nothing view of t1"
        db.commit(ro).result()
        assert_one_copy_serializable(db.history)

    def test_ro_waits_for_site_visibility_with_delayed_messages(self):
        """With message delays, a reader's start number can outrun a slow
        site's visibility; the read waits on VC state and then proceeds."""
        courier = Courier(manual=True)
        db = DistributedVCDatabase(n_sites=2, courier=courier)
        t = db.begin()
        fx = db.write(t, "s1:x", 1)
        fy = db.write(t, "s2:y", 2)
        courier.pump()
        fx.result(), fy.result()
        done = db.commit(t)
        courier.pump(2)  # both prepares; decide() ran; commits queued
        courier.pump(1)  # commit applied at site 1 only
        assert done.pending
        ro = db.begin(read_only=True, origin_site=1)
        assert ro.sn >= t.tn, "site 1 already shows t as visible"
        f = db.read(ro, "s2:y")
        courier.pump(1)  # deliver the read to site 2: must wait, not answer
        assert f.pending, "site 2's visibility has not caught up"
        courier.pump()   # deliver t's commit at site 2
        assert f.result() == 2, "now the full update is visible"
        assert done.done
        db.commit(ro).result()
        assert_one_copy_serializable(db.history)

    def test_idle_site_fast_forward(self, db):
        # Site 3 never sees traffic; a reader with a high sn from busy site 1
        # must not hang there.
        for i in range(3):
            t = db.begin()
            db.write(t, "s1:x", i).result()
            db.commit(t).result()
        ro = db.begin(read_only=True, origin_site=1)
        f = db.read(ro, "s3:quiet")
        assert f.done, "idle site fast-forwards its visibility"
        assert f.result() is None

    def test_ro_write_rejected(self, db):
        ro = db.begin(read_only=True)
        with pytest.raises(ProtocolError, match="read-only"):
            db.write(ro, "s1:x", 1)


class TestGlobalSerializability:
    def test_randomized_cross_site_workload_is_globally_1sr(self, db):
        import random

        rng = random.Random(42)
        keys = [f"s{s}:k{i}" for s in (1, 2, 3) for i in range(4)]
        for _ in range(40):
            if rng.random() < 0.4:
                ro = db.begin(read_only=True, origin_site=rng.randint(1, 3))
                for key in rng.sample(keys, 3):
                    db.read(ro, key).result()
                db.commit(ro).result()
            else:
                t = db.begin()
                for key in rng.sample(keys, 2):
                    db.write(t, key, rng.random()).result()
                db.commit(t).result()
        report = assert_one_copy_serializable(db.history)
        assert report.transactions >= 40
