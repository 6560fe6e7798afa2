"""Pinned stdout of the trace readers: ``trace``, ``trace --json``,
``trace --spans`` and ``explain``, over three traces.

* Q — the quickstart's trace (``REPRO_TRACE=Q python examples/quickstart.py``):
  a blocked transaction (T8), spans, visibility pairs;
* T — the traced fault drill (``drill --seeds 2 --duration 200 --slo
  --witness --trace T``, the fixture ``tests/faults/test_campaign_harness.py``
  pins the run of);
* C — :data:`CONTENDED_RUN`, a centralized ``vc-2pl-wal`` run with a
  collector and enough contention for deadlocks: the visibility, lag, gc and
  deadlock rows T cannot show.

Each trace is written in a fresh interpreter (trace events carry transaction
ids from a process-wide counter) and each command runs in one too.  The
literals are the refactoring oracle for everything that reads a trace back;
they move only when a change means to alter what these commands print.
T's two moved twice: when the drill's restarted sites stayed traced (their
rebuilt lock managers' and VCs' events joined the trace), and when the
distributed waits-for graph every site shares was traced (its 30
``deadlock.detect`` events joined the summary's counts).
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from tests.faults.test_campaign_harness import _repro, _sha256, traced_drill  # noqa: F401

ROOT = pathlib.Path(repro.__file__).resolve().parent.parent.parent

#: A ``vc-2pl-wal`` run under ``balanced(seed=0)`` with a collector every 60
#: time units: 13 295 events, 11 deadlocks, 5 sweeps, 656 lag samples.
CONTENDED_RUN = """
import sys
from repro.bench.runner import SimConfig, run_simulation
from repro.obs.pipeline import ObsPipeline
from repro.protocols.registry import make_scheduler
from repro.workload.mixes import balanced

pipeline = ObsPipeline(jsonl=sys.argv[1])
run_simulation(
    make_scheduler("vc-2pl-wal"), balanced(seed=0),
    SimConfig(duration=300.0, n_clients=16, gc_period=60.0, check_serializability=False),
    tracer=pipeline.tracer,
)
pipeline.close()
"""

#: sha256 of the stdout of ``python -m repro <command>``, the second word
#: standing for the trace file it names.
PINNED = {
    "trace Q": "a1a3dde1a33acdb3401cd251958beb98ed3fcf2d066e9ab506e18a76887b588d",
    "trace Q --json": "c1ebdd3aef3e32a4132931bb1313bd9873947009db91820dff25cf190346d6e1",
    "trace Q --spans": "7c1b4abafc72031833086a9e650a44badad6c52602e0be3062eef292e36a2c74",
    "explain Q 8": "d8a151edd411b9d46d991e6c234371a6c5d3111e64bfa2a250cd8f123ecf14f9",
    "explain Q 8 --json": "731a80e4ccdc48a4ae092213b5b6318272799ea9b6e31a4a1a86d97bd9ee5b38",
    "trace T": "5d0b094af5291f2fd54564da34d5fdc27534a00e91298ee0710f6e325ec430f4",
    "trace T --json": "a4b3d6311378150698726a848c10ba30cc074f9992d39af96773c9b61dbd89ae",
    "trace C --json": "5b349188e933d5c78f1492197f85b82fa5db1f8efaee1c87256da6edee22001b",
}


def _fresh(*argv, env=None):
    src = str(ROOT / "src")
    subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": src, **(env or {})},
        capture_output=True, timeout=120, check=True,
    )


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """The quickstart trace Q and the contended trace C, written once."""
    root = tmp_path_factory.mktemp("trace_pins")
    quickstart, contended = root / "q.jsonl", root / "c.jsonl"
    _fresh(str(ROOT / "examples" / "quickstart.py"), env={"REPRO_TRACE": str(quickstart)})
    _fresh("-c", CONTENDED_RUN, str(contended))
    return {"Q": str(quickstart), "C": str(contended)}


def _run(command, files):
    name, trace, *rest = command.split()
    return _repro(name, files[trace], *rest)


class TestPinnedTraceReaders:
    @pytest.mark.parametrize("command", [c for c in PINNED if " T" not in c])
    def test_pinned(self, command, traces):
        out = _run(command, traces)
        assert _sha256(out) == PINNED[command], out.decode()[-2000:]

    @pytest.mark.parametrize("command", [c for c in PINNED if " T" in c])
    def test_pinned_on_the_traced_drill(self, command, traced_drill):
        out = _run(command, {"T": str(traced_drill[1])})
        assert _sha256(out) == PINNED[command], out.decode()[-2000:]
