"""The memory-pressure controller and its campaign.

Unit tests pin the watermark loop's mechanics — expire first, sweep,
revoke oldest-first only while above the high watermark, tighten and
restore admission — and the acceptance test runs the seeded HTAP
campaign behind ``python -m repro drill --campaign memory``.
"""

import pytest

from repro.core.transaction import Transaction, TxnClass
from repro.core.version_control import VersionControl
from repro.qos.admission import AdmissionController
from repro.qos.memory import MemoryPressureController, run_memory_campaign
from repro.storage.gc import GarbageCollector
from repro.storage.mvstore import MVStore


def ro(sn):
    t = Transaction(TxnClass.READ_ONLY)
    t.sn = sn
    return t


class Rig:
    """Store + VC + bounded GC with helpers to sculpt a footprint."""

    def __init__(self, n_keys=4):
        self.store = MVStore()
        self.vc = VersionControl()
        self.gc = GarbageCollector(self.store, self.vc)
        self.registry = self.gc.registry
        self.keys = [f"k{i}" for i in range(n_keys)]

    def commit_round(self):
        for key in self.keys:
            t = Transaction()
            self.vc.vc_register(t)
            self.store.install(key, t.tn, t.tn)
            self.vc.vc_complete(t)

    def pin(self):
        reader = ro(self.vc.vc_start())
        self.registry.register(reader)
        return reader

    def controller(self, **kwargs):
        kwargs.setdefault("low_watermark", 8)
        kwargs.setdefault("high_watermark", 10)
        return MemoryPressureController(
            self.store, self.gc, self.registry, **kwargs
        )


class TestController:
    def test_watermark_validation(self):
        rig = Rig()
        with pytest.raises(ValueError):
            rig.controller(low_watermark=10, high_watermark=5)
        with pytest.raises(ValueError):
            rig.controller(low_watermark=0, high_watermark=5)

    def test_quiet_check_just_sweeps(self):
        rig = Rig()
        rig.commit_round()
        controller = rig.controller()
        live = controller.check(now=0.0)
        assert controller.state == "normal"
        assert controller.revocations == 0
        assert rig.gc.passes == 1
        assert live == len(rig.keys)  # one version per chain

    def test_pressure_revokes_oldest_until_under_high(self):
        rig = Rig()
        rig.commit_round()
        old_pin = rig.pin()          # sn = 4
        rig.commit_round()
        young_pin = rig.pin()        # sn = 8
        rig.commit_round()
        rig.commit_round()
        # Footprint: per chain the two pinned versions + the newest = 12.
        controller = rig.controller(low_watermark=8, high_watermark=10)
        live = controller.check(now=0.0)
        # One revocation (the *oldest* pin) brings it to 8 <= low: back to
        # normal within the same check.
        assert controller.revocations == 1
        assert rig.registry.lease_of(old_pin).revoked
        assert rig.registry.lease_of(young_pin).live
        assert live == 8
        assert controller.state == "normal"
        assert controller.peak_live == 12

    def test_ttl_expiry_is_tried_before_revocation(self):
        now = [0.0]
        rig = Rig()
        rig.registry.ttl = 10.0
        rig.registry.clock = lambda: now[0]
        rig.commit_round()
        zombie = rig.pin()           # granted at t=0, expires at t=10
        rig.commit_round()
        rig.commit_round()
        controller = rig.controller(low_watermark=6, high_watermark=7)
        now[0] = 11.0
        controller.check(now=now[0])
        # The expired lease freed the footprint; no pressure revocation.
        assert rig.registry.lease_of(zombie).revoke_cause == "lease_expired"
        assert rig.registry.revoked_counts == {"lease_expired": 1}
        assert controller.state == "normal"

    def test_max_revocations_per_check_is_respected(self):
        rig = Rig()
        pins = []
        for _ in range(4):
            rig.commit_round()
            pins.append(rig.pin())
        rig.commit_round()
        # Footprint 4 keys x (4 pins + newest) = 20; an impossible target
        # forces the loop to keep revoking until the valve stops it.
        controller = rig.controller(
            low_watermark=1, high_watermark=1, max_revocations_per_check=2
        )
        controller.check(now=0.0)
        assert controller.revocations == 2
        revoked = [p for p in pins if rig.registry.lease_of(p).revoked]
        assert revoked == pins[:2]   # oldest-first
        assert controller.state == "pressured"

    def test_admission_tightened_under_pressure_and_restored(self):
        rig = Rig()
        admission = AdmissionController(capacity=8)
        rig.commit_round()
        pin = rig.pin()
        for _ in range(3):
            rig.commit_round()
        controller = rig.controller(
            low_watermark=7, high_watermark=7, admission=admission
        )
        controller.check(now=0.0)    # 8 live > 7: revoke the pin -> 4 live
        assert controller.revocations == 1
        # Pressure entered and exited within one check; capacity restored.
        assert controller.state == "normal"
        assert admission.capacity == 8

    def test_admission_stays_tight_while_pressured(self):
        rig = Rig()
        admission = AdmissionController(capacity=8)
        rig.commit_round()
        # In-flight writers hold pending versions the sweep must retain:
        # 4 chains x (1 committed + 2 pending) = 12 live, no lease to
        # revoke — pressure persists until the writers drain.
        for key in rig.keys:
            rig.store.place_pending(key, 100, "w1")
            rig.store.place_pending(key, 101, "w2")
        controller = rig.controller(
            low_watermark=4, high_watermark=10, admission=admission
        )
        controller.check(now=0.0)
        assert controller.state == "pressured"
        assert admission.capacity == 4
        # The writers abort: their pending versions are destroyed and the
        # next check drops below the low watermark.
        for key in rig.keys:
            rig.store.discard_pending(key, 100)
            rig.store.discard_pending(key, 101)
        live = controller.check(now=1.0)
        assert live == 4
        assert controller.state == "normal"
        assert admission.capacity == 8


class TestAcceptance:
    def test_memory_campaign_meets_the_guarantees(self):
        report = run_memory_campaign(seed=0)
        assert report.ok, report.violations

        stats = report.stats
        # The paper's invariant under degradation: zero stale reads.
        assert stats.invariant_violations == []
        # Bounded footprint, independent of duration.
        assert 0 < stats.peak_live <= report.live_bound
        # Degradation engaged and surfaced as typed errors.
        assert stats.revocations
        assert stats.too_old_total > 0
        # Long scans were revoked yet ran to completion on retry.
        assert stats.scan_commits > 0
        assert stats.ro_commits > 0
        # RW work flowed (and some was shed while tightened).
        assert stats.rw_commits > 0
        # Deterministic, including the SLO verdict block.
        assert report.deterministic
        assert report.slo is not None and report.slo["ok"]

    def test_witness_peak_is_duration_independent(self):
        """The sealing bound, measured: doubling the campaign's run length
        must not move the certifier's peak tracked state at all — memory
        tracks the live-transaction window plus per-key frontier constants,
        never the number of committed transactions."""
        shorter = run_memory_campaign(
            seed=0, duration=400.0, verify_determinism=False, slo=False
        )
        longer = run_memory_campaign(
            seed=0, duration=800.0, verify_determinism=False, slo=False
        )
        assert shorter.ok and longer.ok
        assert longer.stats.rw_commits > shorter.stats.rw_commits
        assert (
            longer.witness["peak_tracked"] == shorter.witness["peak_tracked"]
        )
        assert longer.witness["peak_tracked"] <= longer.witness_bound
        assert longer.witness["ok"]

    def test_report_serializes(self):
        report = run_memory_campaign(
            seed=1, duration=200.0, verify_determinism=False, slo=False
        )
        data = report.as_dict()
        assert data["ok"] == report.ok
        assert set(data) >= {
            "peak_live",
            "live_bound",
            "revocations",
            "revoked_by_cause",
            "too_old_by_cause",
            "gc_scan_per_reclaimed",
            "violations",
        }
        assert data["slo"] is None
