"""Campaign and bench smoke tests (short durations; CI runs the full drill)."""

from repro.replica.bench import run_replica_scaling, run_replica_sync
from repro.replica.campaign import run_replication_campaign


class TestReplicationCampaign:
    def test_seeded_campaign_passes(self):
        report = run_replication_campaign(seed=0, duration=80.0)
        assert report.ok, report.violations
        assert report.phase.rw_commits > 0
        assert report.phase.ro_commits > 0
        assert report.phase.promoted_replica is not None
        assert report.deterministic
        # Faults actually fired — the run exercised the lossy path.
        assert report.faults.get("drops", 0) > 0

    def test_quorum_mode_has_zero_rpo(self):
        # The same lossy campaign under quorum acks: nothing acknowledged
        # may sit above the promoted watermark.
        report = run_replication_campaign(
            seed=0, duration=80.0, mode="quorum", verify_determinism=False
        )
        assert report.ok, report.violations
        assert report.phase.rpo_txns == 0
        assert report.phase.promoted_replica is not None

    def test_async_mode_reports_rpo_as_replication_lag(self):
        report = run_replication_campaign(seed=0, duration=80.0)
        assert report.phase.rpo_txns == report.phase.failover_lag_txns

    def test_campaign_without_promotion(self):
        report = run_replication_campaign(
            seed=1, duration=60.0, promote=False, verify_determinism=False
        )
        assert report.ok, report.violations
        assert report.phase.promoted_replica is None

    def test_as_dict_round_trip(self):
        report = run_replication_campaign(
            seed=2, duration=50.0, verify_determinism=False
        )
        data = report.as_dict()
        assert data["ok"] == report.ok
        assert data["rw_commits"] == report.phase.rw_commits
        assert len(data["final_vtncs"]) == report.n_replicas - 1  # one promoted

    def test_slo_staleness_verdict_and_expected_lag_breach(self):
        report = run_replication_campaign(seed=0, duration=150.0)
        assert report.slo is not None
        assert report.slo["ok"], report.slo["breaches"]
        objectives = report.slo["objectives"]
        # The staleness-bound SLO held online, window by window.
        assert objectives["ro_staleness"]["violations"] == 0
        assert objectives["ro_staleness"]["windows"] > 0
        # The injected partitions spike primary-measured replica lag: an
        # *expected* breach — reported, flight-recorded, not failing.
        lag_breaches = [
            b for b in report.slo["breaches"] if b["objective"] == "replica_lag"
        ]
        assert lag_breaches and all(b["expected"] for b in lag_breaches)
        assert report.deterministic  # verdict equal under seeded replay

    def test_breach_bundle_contains_injected_cause(self):
        """The flight recorder's bundle window must hold the fault events
        that caused the expected replica-lag breach."""
        from repro.obs.slo import FlightRecorder, SLOEngine, replication_objectives
        from repro.replica.campaign import REPLICATION_SPEC, _run_phase

        engine = SLOEngine(
            replication_objectives(max_staleness=8, writers=4),
            window=150.0 / 16.0,
            recorder=FlightRecorder(capacity=16_384),
        )
        phase = _run_phase(
            0,
            duration=150.0,
            n_replicas=3,
            spec=REPLICATION_SPEC,
            mode="async",
            promote=False,
            engine=engine,
        )
        assert phase.rw_commits > 0
        engine.finish()
        assert engine.expected_breaches
        assert engine.bundles
        bundle = engine.bundles[0]
        assert any(
            name.startswith("fault.") for name in bundle["event_tally"]
        ), bundle["event_tally"]
        # The breach window itself sits inside the bundle's slice.
        breach = bundle["breach"]
        assert bundle["window"][0] <= breach["window"][0]
        assert bundle["window"][1] == breach["window"][1]


class TestReplicaScalingBench:
    def test_ro_scales_rw_flat(self):
        block = run_replica_scaling(seed=0, duration=80.0)
        assert block["ok"], block["violations"]
        assert block["ro_speedup"] >= 2.0
        assert abs(block["rw_ratio"] - 1.0) <= 0.15
        # Comparator safety: the block is not shaped like a protocol entry.
        assert "throughput" not in block


class TestReplicaSyncBench:
    def test_quorum_pays_latency_not_correctness(self):
        block = run_replica_sync(seed=0, duration=150.0)
        assert block["ok"], block["violations"]
        # The quorum p50 carries at least one ship+ack round trip that
        # async never waits for.
        assert block["commit_p50_delta"] >= 2 * block["latency"]
        quorum = block["modes"]["quorum"]
        assert quorum["quorum_fenced"] == 0, "clean network must not fence"
        assert quorum["quorum_indeterminate"] == 0
        # Comparator safety: the block is not shaped like a protocol entry.
        assert "throughput" not in block
