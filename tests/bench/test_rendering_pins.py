"""What ``bench`` and ``report`` print, pinned line for line.

Both renderers are pure functions of virtual-time results, so a refactor of
either command shows up here as a text diff against ``tests/bench/pins/``.
Re-pin only with a change that is meant to move the output.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.bench.artifact import SUITES, load_artifact, render_artifact

PINS = pathlib.Path(__file__).resolve().parent / "pins"
ROOT = PINS.parent.parent.parent


def test_pinned_bench_quick_stdout():
    # ``bench --quick`` prints this and then ``artifact written to <path>``.
    # TestCommittedBaseline holds the fresh quick artifact equal to the
    # committed one, so rendering the committed one is rendering the run —
    # once its protocols (written with sorted keys) are back in suite order.
    baseline = load_artifact(str(ROOT / "BENCH_baseline.json"))
    baseline["protocols"] = {
        name: baseline["protocols"][name] for name in SUITES["quick"].protocols
    }
    assert render_artifact(baseline) + "\n" == (PINS / "bench_quick.stdout").read_text()


@pytest.mark.parametrize("hashseed", ["0", "7"])
def test_pinned_report_stdout(hashseed):
    # ``python -m repro report EXP-A ABL-VICTIM`` less its ``(N.Ns)`` lines,
    # in an interpreter of its own: ABL-VICTIM's victim choice reads
    # transaction ids, which come from a process-wide counter.
    done = subprocess.run(
        [sys.executable, "-m", "repro", "report", "EXP-A", "ABL-VICTIM"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hashseed},
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = done.stdout.splitlines(keepends=True)
    printed = "".join(line for line in lines if not re.fullmatch(r"\(\d+\.\ds\)\n", line))
    assert printed == (PINS / "report_EXP-A_ABL-VICTIM.stdout").read_text()
