"""End-to-end fault drills: seeded campaigns must hold the paper invariants."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.faults import FaultSpec, PartitionWindow, run_campaign, run_drill
from repro.faults.drill import main as drill_main
from repro.obs import RingBufferExporter, Tracer


class TestRunDrill:
    def test_dvc_drill_ok_with_faults(self):
        report = run_drill("dvc", seed=0, duration=200.0)
        assert report.ok, (report.violations, report.wedged)
        assert report.commits > 10
        assert sum(report.faults.values()) > 0

    def test_dmv2pl_drill_ok_with_faults(self):
        report = run_drill("dmv2pl", seed=0, duration=200.0)
        assert report.ok, (report.violations, report.wedged)
        assert report.commits > 10
        assert report.ro_commits == 0  # drills skip the known RO anomaly

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            run_drill("nope", seed=0)

    def test_deterministic_under_seed(self):
        a = run_drill("dvc", seed=9, duration=150.0).as_dict()
        b = run_drill("dvc", seed=9, duration=150.0).as_dict()
        assert a == b

    def test_deterministic_under_any_hash_seed(self):
        # Keys are strings, so anything iterated in set order (once: the
        # lock manager's held keys, hence the re-grant order at release)
        # makes a seeded drill depend on PYTHONHASHSEED.
        script = (
            "import json; from repro.faults import run_drill; "
            "print(json.dumps(run_drill('dmv2pl', seed=0).as_dict(), sort_keys=True))"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        reports = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, timeout=120, check=True,
            ).stdout
            for hash_seed in ("1", "2")
        ]
        assert reports[0] == reports[1]

    def test_different_seeds_differ(self):
        a = run_drill("dvc", seed=1, duration=150.0).as_dict()
        b = run_drill("dvc", seed=2, duration=150.0).as_dict()
        assert a != b

    def test_crashes_happen_and_survive(self):
        report = run_drill("dvc", seed=3, duration=300.0, crash_mean=40.0)
        assert report.crashes > 0
        assert report.ok, (report.violations, report.wedged)

    def test_no_crash_mode(self):
        report = run_drill("dvc", seed=0, duration=150.0, crash_mean=None)
        assert report.crashes == 0
        assert report.ok

    def test_partition_windows_defer_messages(self):
        spec = FaultSpec(partitions=(PartitionWindow("*", 40.0, 90.0),))
        report = run_drill("dvc", seed=0, duration=200.0, spec=spec, crash_mean=None)
        assert report.ok, (report.violations, report.wedged)
        assert report.faults["partition_deferrals"] > 0

    def test_heavy_loss_still_converges(self):
        spec = FaultSpec(drop=0.35, duplicate=0.15, delay_spike=0.1)
        report = run_drill("dvc", seed=4, duration=250.0, spec=spec)
        assert report.ok, (report.violations, report.wedged)
        assert report.commits > 0

    def test_fault_events_traced(self):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        report = run_drill("dvc", seed=0, duration=150.0, tracer=tracer)
        names = {e["name"] for e in ring.events()}
        assert any(name.startswith("fault.") for name in names)
        assert "fault.drill.done" in names
        assert report.ok


class TestRunCampaign:
    def test_campaign_covers_protocols_and_seeds(self):
        reports = run_campaign(("dvc", "dmv2pl"), seeds=2, duration=120.0)
        assert len(reports) == 4
        assert {r.protocol for r in reports} == {"dvc", "dmv2pl"}
        assert all(r.ok for r in reports), [
            (r.protocol, r.seed, r.violations, r.wedged) for r in reports
        ]


class TestDrillCLI:
    def test_cli_pass(self, capsys):
        code = drill_main(
            ["--seeds", "1", "--duration", "100", "--protocol", "dvc"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failed" in out

    def test_cli_trace_output(self, tmp_path, capsys):
        trace = tmp_path / "drill.jsonl"
        code = drill_main(
            [
                "--seeds",
                "1",
                "--duration",
                "100",
                "--protocol",
                "dvc",
                "--quiet",
                "--trace",
                str(trace),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert trace.exists()
        assert '"fault.' in trace.read_text()
