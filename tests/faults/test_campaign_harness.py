"""The campaign harness: pinned drill output, shared-core units, CLI contract.

``TestPinnedOutput`` is the refactoring oracle as a tier-1 test.  Every
seeded drill is byte-deterministic under any ``PYTHONHASHSEED``, so
"behaviour unchanged" is a digest comparison: the literals below were taken
at ``adcb5ad`` (before the six drills shared one harness) and must never
move unless a change *means* to alter what a drill does or prints.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.faults.drill import main as drill_main

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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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

    def test_traced_fault_drill_is_pinned(self, tmp_path):
        trace = tmp_path / "drill.jsonl"
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "drill",
                "--seeds", "2", "--duration", "200",
                "--slo", "--witness", "--trace", str(trace),
            ],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, timeout=120, check=True,
        )
        assert _sha256(done.stdout) == PINNED_TRACED_STDOUT, done.stdout
        assert _sha256(trace.read_bytes()) == PINNED_TRACE_FILE
