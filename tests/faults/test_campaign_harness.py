"""The campaign harness: pinned drill output, shared-core units, CLI contract.

``TestSharedCore`` shows every verdict path of
:mod:`repro.faults.campaign` able to fail; ``TestDrillCLI`` holds the
``python -m repro drill`` contract (every campaign runs, the replay hint
replays, a flag is honoured or rejected — never ignored).
``TestPinnedOutput`` is the refactoring oracle as a tier-1 test.  Every
seeded drill is byte-deterministic under any ``PYTHONHASHSEED``, so
"behaviour unchanged" is a digest comparison: the literals below were taken
at ``adcb5ad`` (before the six drills shared one harness) and must never
move unless a change *means* to alter what a drill does or prints.
"""

import hashlib
import importlib
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

import repro
from repro.core.futures import OpFuture
from repro.faults import FaultSpec
from repro.faults.campaign import (
    CampaignPhase,
    CampaignReport,
    DoubleRun,
    PhaseRun,
    closed_loop,
    verify_double_run,
)
from repro.faults.drill import CAMPAIGNS, build_parser, parse_args
from repro.faults.drill import main as drill_main
from repro.replica.campaign import REPLICATION_SPEC

#: sha256 of ``drill --campaign C --seeds 2 --duration D`` stdout.
PINNED_STDOUT = {
    "faults": (
        "200", "1943e9062eab727efbdb4330c248076e6db510bfe37f565566d9ffd534ee3c0c"
    ),
    "overload": (
        "200", "3930814ee941a9dd892466749d5ecc8bbb6b07a5a3c85245e05eddcdde6d3ae5"
    ),
    "replication": (
        "150", "120954e60b49022ef131cab69292c7b6d95df593b25019414edea11313f0940a"
    ),
    "memory": (
        "200", "15f28c4d2f15d3f9d70763bd17a0f21777d48bd4b78b94b7bf8d1dd127d82f78"
    ),
    "availability": (
        "120", "f09fccfd56155ccfb8922074e23ede57d7a4a4c4ef37fec2d188d82f01dbff3d"
    ),
    "shard": (
        "120", "ac7a458e99c45151f817eed892da34512f986636e940603615c7ea158da75765"
    ),
}

#: ``drill --seeds 2 --duration 200 --slo --witness --trace T``: stdout, T.
#: Taken in a fresh interpreter: trace events carry transaction ids, which
#: come from a process-wide counter.
PINNED_TRACED_STDOUT = (
    "1049b898fe0fd54aa08dbcaa44fb2a440f953e3c5bde01b7ba74e69e66649c17"
)
PINNED_TRACE_FILE = (
    "d03ca29c78b93f0531663f82442859cee4dee2fbda97346f3adff10baa08f634"
)
#: sha256 of ``explain T <txn> --json`` stdout, T the trace above: a committed
#: transaction with 20 serialization-graph edges and a lock wait, and a
#: deadlock victim with two waits and a critical path.
PINNED_EXPLAIN_JSON = {
    247: "97bf257f100a9976b0ff70ed5b24df64c88dcd030feb16228af0852954bd2236",
    41: "5ac2e8da40e3d80564193d5d88e1a262d3f44a5e015f2e621c107b77582de912",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _repro(*argv: str) -> bytes:
    """stdout of ``python -m repro *argv`` in a fresh interpreter."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, timeout=120, check=True,
    )
    return done.stdout


@pytest.fixture(scope="class")
def traced_drill(tmp_path_factory):
    """The traced fault drill, run once: its stdout and its trace file."""
    trace = tmp_path_factory.mktemp("traced") / "drill.jsonl"
    stdout = _repro(
        "drill", "--seeds", "2", "--duration", "200",
        "--slo", "--witness", "--trace", str(trace),
    )
    return stdout, trace


class TestPinnedOutput:
    @pytest.mark.parametrize("campaign", sorted(PINNED_STDOUT))
    def test_drill_stdout_is_pinned(self, campaign, capsys):
        duration, digest = PINNED_STDOUT[campaign]
        code = drill_main(
            ["--campaign", campaign, "--seeds", "2", "--duration", duration]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert _sha256(out.encode()) == digest, out

    def test_traced_fault_drill_is_pinned(self, traced_drill):
        stdout, trace = traced_drill
        assert _sha256(stdout) == PINNED_TRACED_STDOUT, stdout
        assert _sha256(trace.read_bytes()) == PINNED_TRACE_FILE

    @pytest.mark.parametrize("txn", sorted(PINNED_EXPLAIN_JSON))
    def test_explain_of_the_traced_drill_is_pinned(self, traced_drill, txn):
        out = _repro("explain", str(traced_drill[1]), str(txn), "--json")
        assert _sha256(out) == PINNED_EXPLAIN_JSON[txn], out


# -- the shared core: every verdict path shown able to fail ----------------------


@dataclass
class _Report(CampaignReport):
    phase: CampaignPhase


def _report(**kwargs):
    return _Report(seed=0, duration=10.0, phase=CampaignPhase(), **kwargs)


class _Result:
    def __init__(self, value):
        self.value = value

    def fingerprint(self):
        return self.value


class _Engine:
    """What ``conclude`` reads of an SLO engine."""

    def __init__(self, breaches=()):
        self.unexpected_breaches = list(breaches)

    def report(self):
        return {"ok": not self.unexpected_breaches}


class _Certifier:
    """What ``conclude`` reads of a witness certifier."""

    def __init__(self, violations=()):
        self._violations = list(violations)

    def report(self):
        return {"ok": not self._violations}

    def gate_violations(self):
        return list(self._violations)


class TestSharedCore:
    def test_divergent_replay_is_a_violation(self):
        values = iter([1, 2])
        outcome = verify_double_run(lambda engine, certifier: _Result(next(values)))
        assert not outcome.deterministic
        report = _report()
        report.conclude(outcome)
        assert report.deterministic is False
        assert report.violations == [_Report.NONDETERMINISTIC]
        assert not report.ok

    def test_matching_replay_is_clean(self):
        outcome = verify_double_run(lambda engine, certifier: _Result(1))
        report = _report()
        report.conclude(outcome)
        assert report.deterministic and report.ok
        assert report.slo is None and report.witness is None

    def test_unexpected_breach_is_one_slo_line(self):
        breach = SimpleNamespace(
            objective="ro_blocking", value=2.0, threshold=0,
            window_start=10.0, window_end=20.0,
        )
        report = _report()
        report.conclude(DoubleRun(None, _Engine([breach]), None, True))
        assert report.violations == [
            "slo breach: ro_blocking value=2 vs 0 at window [10, 20)"
        ]
        assert report.slo == {"ok": False}

    def test_witness_gate_violation_is_a_violation(self):
        report = _report()
        report.conclude(DoubleRun(None, None, _Certifier(["mvsg cycle T1->T2"]), True))
        assert report.violations == ["mvsg cycle T1->T2"]
        assert report.witness == {"ok": False}

    def test_conclude_order_is_determinism_slo_witness(self):
        breach = SimpleNamespace(
            objective="o", value=1.0, threshold=0, window_start=0.0, window_end=1.0
        )
        report = _report(violations=["own check"])
        report.conclude(DoubleRun(None, _Engine([breach]), _Certifier(["cycle"]), False))
        assert [v.split(":")[0] for v in report.violations] == [
            "own check", _Report.NONDETERMINISTIC, "slo breach", "cycle",
        ]

    def test_wedged_process_fails_a_clean_report(self):
        run = PhaseRun(seed=0)

        def stuck(_i):
            yield OpFuture(label="never settles")

        def fine(_i):
            yield 1.0

        run.spawn("stuck", 1, stuck)
        run.spawn("fine", 2, fine)
        run.sim.run()
        phase = CampaignPhase()
        run.settle(phase)
        assert phase.wedged == ["stuck-0"]
        assert phase.events_dispatched == run.sim.events_dispatched > 0
        report = _Report(seed=0, duration=1.0, phase=phase)
        assert not report.violations and not report.ok
        assert report.as_dict()["wedged"] == ["stuck-0"]

    def test_extra_check_only_runs_when_everything_else_matched(self):
        calls = []

        def extra():
            calls.append(1)
            return False

        values = iter([1, 2])
        verify_double_run(
            lambda engine, certifier: _Result(next(values)), extra_check=extra
        )
        assert not calls  # fingerprints already diverged
        outcome = verify_double_run(
            lambda engine, certifier: _Result(1), extra_check=extra
        )
        assert calls == [1] and not outcome.deterministic
        verify_double_run(
            lambda engine, certifier: _Result(1), extra_check=extra, verify=False
        )
        assert calls == [1]  # no replay, nothing to continue

    def test_closed_loop_does_not_start_past_the_deadline(self):
        run = PhaseRun(seed=0)
        started = []

        def once():
            started.append(run.sim.now)
            yield 3.0

        run.sim.spawn(closed_loop(run.sim, 10.0, lambda: 2.0, once))
        run.sim.run()
        assert started == [2.0, 7.0]  # the arrival at 12.0 is not started


# -- the CLI contract --------------------------------------------------------------


def _sabotaged(monkeypatch, campaign, violation="forced failure"):
    """Make ``campaign``'s runner return its real report, plus a violation;
    records the keyword arguments of every call."""
    module, _, function = CAMPAIGNS[campaign].runner.partition(":")
    real = getattr(importlib.import_module(module), function)
    calls = []

    def runner(**kwargs):
        calls.append(kwargs)
        report = real(**kwargs)
        report.violations.append(violation)
        return report

    monkeypatch.setattr(f"{module}.{function}", runner)
    return calls


class TestDrillCLI:
    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    def test_every_campaign_runs(self, campaign, capsys):
        code = drill_main(
            ["--campaign", campaign, "--seeds", "1", "--duration", "60"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "seed=0" in out and "0 failed" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--campaign", "availability", "--replicas", "4"],
            ["--campaign", "shard", "--sites", "2"],
            [
                "--campaign", "faults", "--protocol", "dvc", "--sites", "2",
                "--drop", "0.1", "--duplicate", "0.02", "--delay-spike", "0.03",
                "--crash-mean", "50", "--slo", "--witness",
            ],
        ],
    )
    def test_replay_hint_replays(self, argv, monkeypatch, capsys):
        _sabotaged(monkeypatch, argv[1])
        argv = [*argv, "--seeds", "1", "--seed-base", "3", "--duration", "120"]
        assert drill_main(argv) == 1
        err = capsys.readouterr().err
        assert "violation: forced failure" in err
        (hint,) = [line for line in err.splitlines() if "replay:" in line]
        command = hint.split("replay: ")[1].split()
        assert command[:4] == ["python", "-m", "repro", "drill"]
        parser = build_parser()
        assert parse_args(parser, command[4:]) == parse_args(parser, argv)

    def test_replay_hint_names_the_failing_seed_and_protocol(
        self, monkeypatch, capsys
    ):
        _sabotaged(monkeypatch, "faults")
        assert drill_main(["--seeds", "2", "--seed-base", "5", "--duration", "60"]) == 1
        hints = [
            line.split("replay: ")[1]
            for line in capsys.readouterr().err.splitlines()
            if "replay:" in line
        ]
        assert hints == [
            f"python -m repro drill --campaign faults --seeds 1 --seed-base {seed} "
            f"--duration 60.0 --protocol {protocol}"
            for protocol in ("dvc", "dmv2pl")
            for seed in (5, 6)
        ]

    def test_explicit_fault_flags_beat_the_campaign_spec(self, monkeypatch, capsys):
        calls = _sabotaged(monkeypatch, "replication")
        common = ["--campaign", "replication", "--seeds", "1", "--duration", "40"]
        # Explicitly passing the *faults* campaign's defaults must stick ...
        drill_main([*common, "--drop", "0.08", "--duplicate", "0.05",
                    "--delay-spike", "0.05"])
        assert "spec=(drop=0.08, dup=0.05, spike=0.05)" in capsys.readouterr().out
        # ... and leaving them alone must give the replication campaign's own.
        drill_main(common)
        assert "spec=(drop=0.1, dup=0.08, spike=0.08)" in capsys.readouterr().out
        assert calls[0]["spec"] == FaultSpec(drop=0.08, duplicate=0.05, delay_spike=0.05)
        assert calls[1]["spec"] == REPLICATION_SPEC

    @pytest.mark.parametrize(
        "campaign, flag, users",
        [
            ("overload", ["--trace", "t.jsonl"], "faults"),
            ("availability", ["--slo"], "faults"),
            ("memory", ["--policy", "fifo"], "overload"),
            ("shard", ["--mode", "quorum"], "replication"),
            ("faults", ["--replicas", "3"], "replication, availability"),
            ("overload", ["--drop", "0.1"], "faults, replication"),
        ],
    )
    def test_unconsumed_flag_is_a_usage_error(
        self, campaign, flag, users, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            drill_main(["--campaign", campaign, "--seeds", "1", *flag])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag[0]} is not consumed by --campaign {campaign}" in err
        assert f"(only by: {users})" in err
        assert not list(tmp_path.iterdir())

    def test_api_doc_lists_the_flags_each_campaign_consumes(self):
        doc = pathlib.Path(repro.__file__).resolve().parents[2] / "docs" / "api.md"
        rows = re.findall(r"^\s*\| `(\w+)` \| (.*?) \|$", doc.read_text(), re.M)
        documented = {
            campaign: tuple(re.findall(r"`--([\w-]+)`", flags))
            for campaign, flags in rows
            if campaign in CAMPAIGNS
        }
        assert documented == {
            campaign: tuple(flag.replace("_", "-") for flag in row.flags)
            for campaign, row in CAMPAIGNS.items()
        }
