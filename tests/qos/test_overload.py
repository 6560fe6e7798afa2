"""The overload campaign: the ISSUE's acceptance stress test.

Read-write load at 4x admission capacity, read-only clients alongside.
The QoS layer must shed the excess with typed errors, deadline-abort
convoyed writers, and keep the read-only fast path completely untouched —
no shedding, no deadline aborts, p99 within 1.5x of the uncontended
baseline, bounded snapshot staleness — deterministically under the seed,
with every decision visible as a ``qos.*`` event.
"""

from repro.qos.overload import RO_P99_CEILING, run_overload_campaign


class TestAcceptance:
    def test_overload_campaign_meets_the_guarantees(self):
        report = run_overload_campaign(seed=0, duration=200.0)
        assert report.ok, report.violations

        # Overload was real: writers at 4x capacity, excess shed.
        assert report.writers == 4 * report.capacity
        assert report.overload.rw_shed > 0
        assert 0.0 < report.shed_rate < 1.0
        # Deadlines bit: some admitted writers convoyed past their budget.
        assert report.overload.rw_deadline_misses > 0

        # The read-only guarantee: never shed, never deadline-aborted,
        # latency flat relative to the uncontended baseline.
        assert report.overload.ro_shed == 0
        assert report.overload.ro_deadline_misses == 0
        assert report.overload.ro_commits > 0
        assert (
            report.overload.ro_latency.p99
            <= RO_P99_CEILING * report.baseline.ro_latency.p99
        )
        # Staleness is reported per snapshot and bounded by capacity.
        assert report.overload.staleness.count == report.overload.ro_commits
        assert report.overload.staleness.maximum <= report.capacity

        # Deterministic (the campaign replays the overload phase itself).
        assert report.deterministic

        # Decisions are observable.
        assert report.overload.qos_events.get("qos.shed", 0) > 0
        assert report.overload.qos_events.get("qos.admit", 0) > 0
        assert report.overload.qos_events.get("qos.ro_snapshot", 0) > 0

    def test_report_serializes(self):
        report = run_overload_campaign(
            seed=1, duration=80.0, verify_determinism=False
        )
        data = report.as_dict()
        assert data["ok"] == report.ok
        assert set(data) >= {
            "shed_rate",
            "deadline_miss_rate",
            "ro_p99_ratio",
            "qos_events",
            "violations",
        }

    def test_shedding_upholds_the_guarantees(self):
        report = run_overload_campaign(seed=2, duration=80.0, verify_determinism=False)
        assert report.overload.ro_shed == 0
        assert report.overload.rw_shed > 0
        assert report.ok, report.violations

    def test_slo_watchdogs_ride_the_campaign(self):
        report = run_overload_campaign(seed=3, duration=80.0)
        assert report.slo is not None
        assert report.slo["ok"], report.slo["breaches"]
        objectives = report.slo["objectives"]
        # The campaign's hard promises run as zero-objectives...
        assert objectives["ro_blocking"]["kind"] == "zero"
        assert objectives["ro_blocking"]["violations"] == 0
        assert objectives["ro_shed"]["violations"] == 0
        # ...and the per-window RO p99 watchdog actually saw latency samples.
        assert objectives["ro_p99"]["windows"] > 0
        # Determinism covers the verdict block too (engine-report equality
        # is folded into the campaign's own replay check).
        assert report.deterministic

    def test_slo_can_be_disabled(self):
        report = run_overload_campaign(
            seed=3, duration=60.0, slo=False, verify_determinism=False
        )
        assert report.slo is None
        assert report.ok, report.violations
