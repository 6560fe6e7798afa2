"""Tests for garbage collection (paper Section 6 rule, bounded)."""

import pytest

from repro.core.transaction import Transaction, TxnClass
from repro.core.version_control import VersionControl
from repro.errors import ProtocolError, SnapshotTooOld
from repro.storage.gc import GarbageCollector, ReadOnlyRegistry
from repro.storage.mvstore import MVStore


def ro(sn):
    t = Transaction(TxnClass.READ_ONLY)
    t.sn = sn
    return t


def leased_registry(clock):
    """A registry with a 10-vt lease, wired the way the memory campaign
    wires one."""
    reg = ReadOnlyRegistry()
    reg.ttl = 10.0
    reg.clock = clock
    return reg


class TestRegistry:
    def test_register_and_min(self):
        reg = ReadOnlyRegistry()
        assert reg.min_active_sn() is None
        reg.register(ro(5))
        reg.register(ro(3))
        assert reg.min_active_sn() == 3
        assert reg.active_count() == 2

    def test_shared_start_numbers_are_multiset(self):
        reg = ReadOnlyRegistry()
        a, b = ro(4), ro(4)
        reg.register(a)
        reg.register(b)
        reg.deregister(a)
        assert reg.min_active_sn() == 4
        reg.deregister(b)
        assert reg.min_active_sn() is None

    def test_register_without_sn_rejected(self):
        reg = ReadOnlyRegistry()
        with pytest.raises(ProtocolError, match="no start number"):
            reg.register(Transaction(TxnClass.READ_ONLY))

    def test_deregister_unknown_rejected(self):
        reg = ReadOnlyRegistry()
        with pytest.raises(ProtocolError, match="holds no snapshot lease"):
            reg.deregister(ro(1))

    def test_deregister_unknown_reports_multiset_state(self):
        reg = ReadOnlyRegistry()
        reg.register(ro(4))
        reg.register(ro(4))
        reg.register(ro(7))
        with pytest.raises(ProtocolError, match=r"\{4: 2, 7: 1\}"):
            reg.deregister(ro(1))


class TestHorizon:
    def build(self):
        store = MVStore()
        vc = VersionControl()
        gc = GarbageCollector(store, vc)
        return store, vc, gc

    def complete_n(self, vc, n):
        for _ in range(n):
            t = Transaction()
            vc.vc_register(t)
            vc.vc_complete(t)

    def test_horizon_is_vtnc_without_readers(self):
        store, vc, gc = self.build()
        self.complete_n(vc, 4)
        assert gc.horizon() == 4

    def test_horizon_lowered_by_old_reader(self):
        store, vc, gc = self.build()
        self.complete_n(vc, 4)
        gc.registry.register(ro(2))
        assert gc.horizon() == 2

    def test_reader_above_vtnc_does_not_raise_horizon(self):
        store, vc, gc = self.build()
        self.complete_n(vc, 2)
        gc.registry.register(ro(10))  # cannot happen in practice, but safe
        assert gc.horizon() == 2


class TestCollect:
    def test_collect_discards_unreachable_versions(self):
        store = MVStore()
        vc = VersionControl()
        gc = GarbageCollector(store, vc)
        for tn in (1, 2, 3, 4):
            t = Transaction()
            vc.vc_register(t)
            store.install("x", tn, tn)
            vc.vc_complete(t)
        # vtnc == 4 and no active readers: only version 4 remains reachable.
        discarded = gc.collect()
        assert discarded == 4
        assert gc.total_discarded == 4
        assert gc.passes == 1
        assert store.read_snapshot("x", 4).value == 4

    def test_active_reader_protects_its_snapshot(self):
        store = MVStore()
        vc = VersionControl()
        gc = GarbageCollector(store, vc)
        reader = None
        for tn in (1, 2, 3):
            t = Transaction()
            vc.vc_register(t)
            store.install("x", tn, tn)
            vc.vc_complete(t)
            if tn == 1:
                reader = ro(vc.vc_start())  # sn = 1
                gc.registry.register(reader)
        gc.collect()
        # Reader's snapshot (version 1) must survive; only v0 collectable.
        assert store.read_snapshot("x", reader.sn).value == 1

    def test_collect_never_discards_at_or_above_vtnc(self):
        """Paper: never discard versions as young as or younger than vtnc."""
        store = MVStore()
        vc = VersionControl()
        gc = GarbageCollector(store, vc)
        t1, t2 = Transaction(), Transaction()
        vc.vc_register(t1)
        vc.vc_register(t2)
        store.install("x", 1, "a")
        store.install("x", 2, "b")
        vc.vc_complete(t1)  # vtnc = 1; t2 still active
        gc.collect()
        assert store.read_snapshot("x", 1).value == "a"
        assert store.read_snapshot("x", 2).value == "b"


class TestLeaseLifecycle:
    def test_double_register_rejected(self):
        reg = ReadOnlyRegistry()
        t = ro(3)
        reg.register(t)
        with pytest.raises(ProtocolError, match="already holds a snapshot lease"):
            reg.register(t)

    def test_interleaved_deregister_on_shared_sn(self):
        # Three leases at sn=5, one at sn=2; releases interleave and the
        # multiset must stay exact at every step.
        reg = ReadOnlyRegistry()
        a, b, c, d = ro(5), ro(5), ro(2), ro(5)
        for t in (a, b, c, d):
            reg.register(t)
        assert reg.snapshot_counts() == {2: 1, 5: 3}
        reg.deregister(b)
        assert reg.snapshot_counts() == {2: 1, 5: 2}
        reg.deregister(c)
        assert reg.min_active_sn() == 5
        reg.deregister(a)
        reg.deregister(d)
        assert reg.snapshot_counts() == {}
        assert reg.min_active_sn() is None

    def test_deregister_twice_rejected(self):
        reg = ReadOnlyRegistry()
        t = ro(4)
        reg.register(t)
        reg.deregister(t)
        with pytest.raises(ProtocolError, match="holds no snapshot lease"):
            reg.deregister(t)

    def test_renew_pushes_expiry(self):
        now = [0.0]
        reg = leased_registry(lambda: now[0])
        t = ro(1)
        lease = reg.register(t)
        assert lease.expires_at == 10.0
        now[0] = 7.0
        reg.renew(t)
        assert lease.expires_at == 17.0
        assert lease.renewals == 1

    def test_no_ttl_means_no_expiry(self):
        reg = ReadOnlyRegistry()  # ttl=None: the original multiset behavior
        lease = reg.register(ro(1))
        assert lease.expires_at == float("inf")
        assert reg.expire_due(1e9) == []

    def test_expire_due_revokes_overdue_only(self):
        now = [0.0]
        reg = leased_registry(lambda: now[0])
        stale, fresh = ro(1), ro(2)
        reg.register(stale)
        now[0] = 5.0
        reg.register(fresh)  # expires at 15
        expired = reg.expire_due(12.0)
        assert [lease.txn_id for lease in expired] == [stale.txn_id]
        assert expired[0].revoke_cause == "lease_expired"
        assert reg.active_sns() == [2]
        assert reg.revoked_counts == {"lease_expired": 1}

    def test_revoke_oldest_orders_by_sn_then_registration(self):
        reg = ReadOnlyRegistry()
        first_at_5, second_at_5, at_3 = ro(5), ro(5), ro(3)
        reg.register(first_at_5)
        reg.register(second_at_5)
        reg.register(at_3)
        victims = reg.revoke_oldest(2)
        assert [v.txn_id for v in victims] == [at_3.txn_id, first_at_5.txn_id]
        assert all(v.revoke_cause == "memory_pressure" for v in victims)
        assert reg.active_sns() == [5]
        assert reg.lease_count() == 3  # revoked leases linger until deregister

    def test_check_and_renew_raise_after_revocation(self):
        reg = ReadOnlyRegistry()
        t = ro(4)
        reg.register(t)
        reg.revoke_oldest(1)
        with pytest.raises(SnapshotTooOld) as exc_info:
            reg.check(t)
        assert exc_info.value.sn == 4
        assert exc_info.value.cause == "memory_pressure"
        with pytest.raises(SnapshotTooOld):
            reg.renew(t)

    def test_revoked_lease_deregisters_quietly(self):
        # The abort path cleans up a revoked session without a second error.
        reg = ReadOnlyRegistry()
        t = ro(4)
        reg.register(t)
        reg.revoke_oldest(1)
        reg.deregister(t)
        assert reg.lease_count() == 0
        assert reg.snapshot_counts() == {}

    def test_revocation_releases_exactly_one_pin_of_shared_sn(self):
        reg = ReadOnlyRegistry()
        a, b = ro(6), ro(6)
        reg.register(a)
        reg.register(b)
        reg.revoke_oldest(1)
        assert reg.snapshot_counts() == {6: 1}
        assert reg.active_count() == 1


class TestBoundedCollect:
    def hammer(self, store, vc, key, n):
        """Commit n serial writers to key; versions get tn 1..n."""
        for _ in range(n):
            t = Transaction()
            vc.vc_register(t)
            store.install(key, t.tn, t.tn)
            vc.vc_complete(t)

    def test_every_sn_pinning_a_different_version_is_retained(self):
        # Adversarial: registered readers at every historical sn, each
        # resolving to a different version of the same chain.  Nothing the
        # pin set needs may go; nothing else above may stay.
        store = MVStore()
        vc = VersionControl()
        gc = GarbageCollector(store, vc)
        readers = []
        for _ in range(6):
            t = Transaction()
            vc.vc_register(t)
            store.install("x", t.tn, t.tn)
            vc.vc_complete(t)
            r = ro(vc.vc_start())
            gc.registry.register(r)
            readers.append(r)
        gc.collect()
        for r in readers:
            assert store.read_snapshot("x", r.sn).value == r.sn
        # All six versions distinct-pinned: only the key's implicit initial
        # version (tn=0, below every pin) is reclaimable.
        assert gc.total_discarded == 1

    def test_interior_versions_between_pins_are_reclaimed(self):
        store = MVStore()
        vc = VersionControl()
        gc = GarbageCollector(store, vc)
        self.hammer(store, vc, "x", 2)
        old = ro(vc.vc_start())  # sn=2
        gc.registry.register(old)
        self.hammer(store, vc, "x", 10)  # versions 3..12 behind the pin
        discarded = gc.collect()
        # Retained: version 2 (the pin) and version 12 (vtnc).  Discarded:
        # the implicit v0, v1, and 3..11 — the latter nine are interior,
        # versions a horizon-only pruner would have kept.
        assert discarded == 11
        assert gc.interior_discarded == 9
        assert store.read_snapshot("x", old.sn).value == 2
        assert store.read_snapshot("x", vc.vtnc).value == 12

    def test_revocation_unblocks_reclamation(self):
        store = MVStore()
        vc = VersionControl()
        gc = GarbageCollector(store, vc)
        self.hammer(store, vc, "x", 1)
        pin = ro(vc.vc_start())
        gc.registry.register(pin)
        self.hammer(store, vc, "x", 5)
        gc.collect()
        assert store.read_snapshot("x", pin.sn).value == 1
        before, _ = store.chain_stats()
        gc.registry.revoke_oldest(1)
        gc.collect()
        after, _ = store.chain_stats()
        assert after < before
        assert store.read_snapshot("x", vc.vtnc).value == 6

    def test_unbounded_flag_reproduces_horizon_rule(self):
        store = MVStore()
        vc = VersionControl()
        gc = GarbageCollector(store, vc, bounded=False)
        self.hammer(store, vc, "x", 2)
        pin = ro(vc.vc_start())  # sn=2 pins the horizon
        gc.registry.register(pin)
        self.hammer(store, vc, "x", 10)
        gc.collect()
        # Horizon = 2: only v0 and v1 go; the whole suffix 2..12 stays.
        live, longest = store.chain_stats()
        assert (live, longest) == (11, 11)
        assert gc.total_discarded == 2
        assert gc.interior_discarded == 0

    def test_scan_cost_per_reclaimed_is_bounded(self):
        store = MVStore()
        vc = VersionControl()
        gc = GarbageCollector(store, vc)
        for round_no in range(20):
            self.hammer(store, vc, "x", 5)
            gc.collect()
        # Amortized O(1): each sweep walks ~chain-length versions and the
        # chain stays short, so examined/reclaimed stays a small constant.
        assert gc.scan_cost_per_reclaimed() < 4.0
