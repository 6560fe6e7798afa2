"""Bench artifacts: schema, determinism, and the regression comparator."""

import copy
import json
import pathlib
import re

import pytest

import repro.bench.artifact as artifact_module
from repro.bench.artifact import (
    BLOCKS,
    SCHEMA,
    SUITES,
    Suite,
    compare,
    load_artifact,
    main,
    run_suite,
    write_artifact,
)

#: Small but non-trivial: one local protocol, one distributed database.
TINY = Suite(
    name="tiny",
    protocols=("vc-2pl", "dvc-2pl"),
    duration=80.0,
    n_clients=4,
    description="test suite",
)

_ENTRY_KEYS = {
    "throughput",
    "commits",
    "commits_ro",
    "commits_rw",
    "aborts",
    "abort_rate_rw",
    "abort_rate_ro",
    "restarts",
    "latency",
    "visibility_lag",
    "critical_path",
    "span_trees",
    "trace_events",
    "wall_clock_s",
}


@pytest.fixture(scope="module")
def artifact():
    return run_suite(TINY, seed=0)


class TestArtifactSchema:
    def test_header(self, artifact):
        assert artifact["schema"] == SCHEMA
        assert artifact["suite"] == "tiny"
        assert artifact["seed"] == 0
        assert set(artifact["protocols"]) == {"vc-2pl", "dvc-2pl"}

    def test_entry_shape(self, artifact):
        for protocol, entry in artifact["protocols"].items():
            assert set(entry) == _ENTRY_KEYS, protocol
            assert entry["commits"] > 0
            assert entry["throughput"] > 0
            for cls in ("ro", "rw"):
                block = entry["latency"][cls]
                assert set(block) == {"count", "mean", "p50", "p95", "p99"}
                assert block["p50"] <= block["p95"] <= block["p99"]

    def test_span_trees_back_every_protocol(self, artifact):
        # The critical-path column is only meaningful if the run actually
        # produced committed span trees — for baselines and distributed
        # databases alike.
        for protocol, entry in artifact["protocols"].items():
            assert entry["span_trees"] > 0, protocol
            shares = entry["critical_path"]
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-3)

    def test_distributed_entry_sees_the_network(self, artifact):
        shares = artifact["protocols"]["dvc-2pl"]["critical_path"]
        assert shares.get("network", 0.0) > 0.0

    def test_artifact_is_json_and_roundtrips(self, artifact, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_artifact(artifact, str(path))
        assert load_artifact(str(path)) == json.loads(path.read_text())

    def test_load_rejects_non_artifact(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_artifact(str(path))

    def test_virtual_time_metrics_deterministic(self, artifact):
        again = run_suite(TINY, seed=0)
        for protocol in TINY.protocols:
            a = dict(artifact["protocols"][protocol])
            b = dict(again["protocols"][protocol])
            a.pop("wall_clock_s")  # the only machine-dependent field
            b.pop("wall_clock_s")
            assert a == b, protocol
        # The slo verdicts are virtual-time too — deterministic wholesale.
        assert artifact["slo"] == again["slo"]

    def test_slo_block_is_top_level_and_comparator_safe(self, artifact):
        slo = artifact["slo"]
        assert set(slo["protocols"]) == set(artifact["protocols"])
        assert slo["ok"] is True
        for protocol, block in slo["protocols"].items():
            assert block["ok"], (protocol, block["breaches"])
            # The VC family's hard promise ran as a hard objective.
            if protocol.startswith(("vc-", "dvc-")):
                assert block["objectives"]["ro_blocking"]["violations"] == 0
        # Comparator safety: protocol entries keep their exact legacy shape
        # (test_entry_shape pins it) and compare() never reads the block.
        stripped = {k: v for k, v in artifact.items() if k != "slo"}
        assert compare(artifact, stripped) == []
        assert compare(stripped, artifact) == []


def _without_host_fields(node):
    """Drop ``rev`` and every ``wall_clock_s``: all that is not virtual time."""
    if isinstance(node, dict):
        return {
            key: _without_host_fields(value)
            for key, value in node.items()
            if key not in ("rev", "wall_clock_s")
        }
    if isinstance(node, list):
        return [_without_host_fields(item) for item in node]
    return node


class TestCommittedBaseline:
    def test_quick_artifact_equals_committed_baseline(self):
        # The refactoring oracle: every block of the quick artifact is
        # virtual-time deterministic, so a behaviour change anywhere under
        # the bench shows up here as a diff, not as a tolerance breach.
        root = pathlib.Path(__file__).resolve().parent.parent.parent
        baseline = load_artifact(str(root / "BENCH_baseline.json"))
        fresh = json.loads(json.dumps(run_suite(SUITES["quick"], seed=baseline["seed"])))
        assert _without_host_fields(fresh) == _without_host_fields(baseline)


ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_benchmarks_doc_lists_every_block_in_table_order():
    doc = ROOT / "docs" / "benchmarks.md"
    section = doc.read_text().split("### Blocks")[1].split("\n## ")[0]
    assert re.findall(r"^\| `(\w+)` \|", section, re.M) == list(BLOCKS)


class TestSloGate:
    """``--slo`` exits 1 on *any* block reporting ``ok`` false: the gate
    iterates :data:`BLOCKS`, and so does this test."""

    @pytest.fixture
    def committed(self, monkeypatch):
        """The committed baseline, returned by ``run_suite`` in place of a run."""
        baseline = load_artifact(str(ROOT / "BENCH_baseline.json"))
        monkeypatch.setattr(artifact_module, "run_suite", lambda *args: baseline)
        return baseline

    def test_every_block_reports_ok(self, committed):
        assert set(BLOCKS) <= set(committed)
        for name in BLOCKS:
            assert committed[name]["ok"] is True, name

    def test_clean_artifact_passes(self, committed, tmp_path):
        assert main(["--slo", "--out", str(tmp_path / "out.json")]) == 0

    @pytest.mark.parametrize("name", list(BLOCKS))
    def test_one_failed_block_fails_the_gate(self, name, committed, tmp_path, capsys):
        block = committed[name]
        block["ok"] = False
        if "violations" in block:
            block["violations"] = [f"{name}: floor missed (injected)"]
        # A fold's violations are read off the protocols' own verdicts.
        for verdict in block.get("protocols", {}).values():
            verdict["ok"] = False
            verdict.get("breaches", []).append({"objective": "injected"})
        assert main(["--slo", "--out", str(tmp_path / "out.json")]) == 1
        out = capsys.readouterr().out
        violations = BLOCKS[name].violations(block)
        assert violations, name
        for message in violations:
            assert message in out
        # Without --slo the same artifact is only written and printed.
        assert main(["--out", str(tmp_path / "out.json")]) == 0


class TestComparator:
    def test_identical_artifacts_pass(self, artifact):
        assert compare(artifact, artifact) == []

    def test_flags_20_percent_throughput_regression(self, artifact):
        worse = copy.deepcopy(artifact)
        entry = worse["protocols"]["vc-2pl"]
        entry["throughput"] = round(entry["throughput"] * 0.8, 6)
        messages = compare(artifact, worse)
        assert len(messages) == 1
        assert "vc-2pl" in messages[0] and "throughput" in messages[0]

    def test_throughput_within_tolerance_passes(self, artifact):
        slightly = copy.deepcopy(artifact)
        entry = slightly["protocols"]["vc-2pl"]
        entry["throughput"] = round(entry["throughput"] * 0.95, 6)
        assert compare(artifact, slightly) == []

    def test_flags_p99_latency_regression(self, artifact):
        worse = copy.deepcopy(artifact)
        worse["protocols"]["dvc-2pl"]["latency"]["rw"]["p99"] *= 1.5
        messages = compare(artifact, worse)
        assert len(messages) == 1
        assert "dvc-2pl" in messages[0] and "p99" in messages[0]

    def test_missing_protocol_fails(self, artifact):
        partial = copy.deepcopy(artifact)
        del partial["protocols"]["dvc-2pl"]
        messages = compare(artifact, partial)
        assert any("missing" in m for m in messages)

    def test_extra_protocol_is_not_a_failure(self, artifact):
        grown = copy.deepcopy(artifact)
        grown["protocols"]["new-proto"] = grown["protocols"]["vc-2pl"]
        assert compare(artifact, grown) == []

    def test_improvement_passes(self, artifact):
        better = copy.deepcopy(artifact)
        for entry in better["protocols"].values():
            entry["throughput"] *= 1.5
            entry["latency"]["rw"]["p99"] *= 0.5
        assert compare(artifact, better) == []


class TestCli:
    def test_list_names_suites(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in SUITES:
            assert name in out

    def test_compare_exit_codes(self, artifact, tmp_path, capsys):
        base = tmp_path / "base.json"
        write_artifact(artifact, str(base))
        worse = copy.deepcopy(artifact)
        worse["protocols"]["vc-2pl"]["throughput"] *= 0.5
        cand = tmp_path / "cand.json"
        write_artifact(worse, str(cand))

        assert main(["--compare", str(base), str(base)]) == 0
        assert main(["--compare", str(base), str(cand)]) == 1
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_unknown_suite_is_an_error(self, capsys):
        assert main(["--suite", "nope"]) == 2
        assert "nope" in capsys.readouterr().out

    def test_protocol_outside_the_suite_is_an_error(self, capsys):
        assert main(["--protocols", "vc-2pl, nope,"]) == 2
        assert "protocols not in suite 'quick': nope " in capsys.readouterr().out
