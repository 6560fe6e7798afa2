"""Lease discipline at the scheduler: checked and renewed before the store.

``tests/storage/test_gc.py`` holds the lease table's own rules and
``tests/qos/test_memory.py`` the pressure campaign end to end; this file
holds what sits between them — ``VersionControlledScheduler``'s read-only
read on the lease it keeps in ``txn.private``.
"""

import pytest

from repro.errors import AbortReason, SnapshotTooOld
from repro.protocols.registry import make_scheduler
from repro.storage.gc import SnapshotLease

VC_PROTOCOLS = ["vc-2pl", "vc-2pl-wal", "vc-to", "vc-occ"]


def loaded(name="vc-2pl-wal"):
    db = make_scheduler(name)
    writer = db.begin()
    for key in "xyz":
        db.write(writer, key, key.upper())
    db.commit(writer)
    return db


def count_snapshot_reads(db):
    calls = []
    read_snapshot = db.store.read_snapshot

    def counted(key, sn):
        calls.append((key, sn))
        return read_snapshot(key, sn)

    db.store.read_snapshot = counted
    return calls


@pytest.mark.parametrize("name", VC_PROTOCOLS)
def test_a_read_after_revocation_fails_before_the_store_is_touched(name):
    db = loaded(name)
    reader = db.begin(read_only=True)
    calls = count_snapshot_reads(db)
    assert db.read(reader, "x").result() == "X"
    assert calls == [("x", 1)]
    (revoked,) = db.ro_registry.revoke_oldest(1)
    assert revoked is reader.private

    second = db.read(reader, "y")
    assert second.failed and isinstance(second.error, SnapshotTooOld)
    assert second.error.reason is AbortReason.SNAPSHOT_TOO_OLD
    assert "memory_pressure" in str(second.error)
    assert reader.state.value == "aborted"
    assert reader.abort_reason is AbortReason.SNAPSHOT_TOO_OLD
    assert calls == [("x", 1)]  # the failing read made no store call
    assert "y" not in reader.read_set
    assert revoked.renewals == 1  # nor did it renew
    assert db.counters.get("abort.ro.snapshot_too_old") == 1
    assert db.ro_registry.lease_count() == 0  # the abort deregistered it


def test_every_read_renews_once_and_moves_the_expiry_by_one_ttl():
    db = loaded()
    now = [0.0]
    db.ro_registry.ttl = 30.0
    db.ro_registry.clock = lambda: now[0]
    reader = db.begin(read_only=True)
    lease = reader.private
    assert isinstance(lease, SnapshotLease) and lease is db.ro_registry.lease_of(reader)
    assert (lease.renewals, lease.granted_at, lease.expires_at) == (0, 0.0, 30.0)
    for reads, (at, key) in enumerate([(4.0, "x"), (9.5, "y"), (9.5, "z")], start=1):
        now[0] = at
        assert db.read(reader, key).result() == key.upper()
        assert (lease.renewals, lease.expires_at) == (reads, at + 30.0)
    assert db.ro_registry.expire_due(39.0) == []
    assert db.ro_registry.expire_due(39.5) == [lease]
    assert lease.revoke_cause == "lease_expired" and lease.renewals == 3
    assert isinstance(db.read(reader, "x").error, SnapshotTooOld)


def test_without_a_ttl_a_read_counts_the_renewal_and_never_asks_the_clock():
    db = loaded()

    def no_clock():
        raise AssertionError("a registry without a ttl stamps nothing on renewal")

    reader = db.begin(read_only=True)
    db.ro_registry.clock = no_clock
    db.read(reader, "x")
    db.read(reader, "y")
    assert reader.private.renewals == 2
    assert reader.private.expires_at == float("inf")


@pytest.mark.parametrize("finish", ["commit", "abort"])
def test_a_finished_reader_keeps_a_lease_that_holds_nothing(finish):
    db = loaded()
    reader = db.begin(read_only=True)
    db.read(reader, "x")
    lease = reader.private
    before = {slot: getattr(lease, slot) for slot in SnapshotLease.__slots__}
    db.commit(reader) if finish == "commit" else db.abort(reader)
    assert reader.is_finished and reader.private is lease
    assert lease.release() is None
    assert {slot: getattr(lease, slot) for slot in SnapshotLease.__slots__} == before
    assert db.ro_registry.lease_of(reader) is None and db.ro_registry.lease_count() == 0
    assert all(
        value is None or isinstance(value, (int, float, str)) for value in before.values()
    )
