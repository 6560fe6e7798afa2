"""Pinned concurrency-control event digests: grant order, block order, victims.

``tests/histories/test_history_digests.py`` pins what every scheduler
*records*; this pins what its concurrency-control component *did* on a
contended run.  For each of the 12 registry protocols the literal below is
sha256 over the JSON lines of every ``lock.*``, ``deadlock.*``,
``txn.block``, ``txn.abort`` and ``cc.call`` event of one seeded
``contended_small`` simulation, followed by the sorted scheduler counters.
Grant order, block order, victim choice and every counted interaction are in
that stream, so a refactor of ``repro.cc`` that moves any of them moves a
digest.  Taken at ``32713fb``; ``vc-2pl-granular`` was re-pinned once
(from ``c79242ca…``), when its manager became the shared lock table: same
events in the same order, plus the flat manager's ``waited``/``upgrade``
fields and ``lock.release``.

Run as a script (``PYTHONPATH=src python tests/cc/test_cc_event_digests.py``)
this file prints the capture; the test runs it that way because transaction
ids come from the process-wide ``Transaction._ids``.
"""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

PINNED = {
    "vc-2pl": "d98709ca4a4e000ee00b71d4d34156a5a3533d2d3f92df8f0349c2962b0c8770",
    "vc-to": "2a7d730cb3063a0bc067677eee22d6b76ebbd8320df9e90e78d2a1b8a9246294",
    "vc-occ": "2f9106f94812fdb2bdc979328ddd722884872947f718b94668bd24cade4a6534",
    "mvto-reed": "5e3bcf6a05b31a18c7fe29d3e5ab954dcbc56f3fde6fa71c45203399321da3f8",
    "mv2pl-chan": "7e95e827e83293c81f3ae88e4c527e0476607028c8a08cd6a95582513eaabfcb",
    "weihl-ti": "1d8f4f194752a5ebefe824de4205fa8f2ff3e7aaeeb71110bf5288eaa2691f0d",
    "sv-2pl": "fb8f3d488110ac756f9c779818db3fe0c30d291355c06391eebf50d678b589ed",
    "sv-to": "73da547e59edcc77ca3608d47d620979459613c5307fed71d992801d8571a617",
    "vc-adaptive": "7fdf4c7c545c281abc73137e20174c55ab8297f2da8fc5bcaa81127c00104271",
    "vc-2pl-wal": "ceb3705b850f79665dccda7350a54090260938c9cc32a1e5ce76abed410fafd4",
    "vc-2pl-granular": "78f1e718eff30594a5cb3d36bec1f48fda051e6d7181ad1e19da97938755b4f7",
    "vc-occ-fwd": "ac4be7364cb08385eba7a31868c1d516aca4540737216400e391f1a7d7b439b7",
}

LOCK_BASED = ("vc-2pl", "vc-2pl-wal", "vc-2pl-granular", "mv2pl-chan", "weihl-ti", "sv-2pl")
TIMESTAMP_BASED = ("vc-to", "mvto-reed", "sv-to")
CC_EVENTS = ("lock.", "deadlock.", "txn.block", "txn.abort", "cc.call")


def cc_event_lines(name: str) -> tuple[list[str], list[tuple[str, int]]]:
    """The CC event stream (JSON lines) and sorted counters of one seeded run."""
    from repro.bench.runner import SimConfig, run_simulation
    from repro.obs.exporters import JsonlExporter
    from repro.obs.tracer import Tracer
    from repro.protocols.registry import make_scheduler
    from repro.workload.mixes import contended_small

    stream = io.StringIO()
    scheduler = make_scheduler(name)
    run_simulation(
        scheduler,
        contended_small(seed=3),
        SimConfig(duration=200),
        tracer=Tracer([JsonlExporter(stream)]),
    )
    lines = [
        line
        for line in stream.getvalue().splitlines()
        if json.loads(line)["name"].startswith(CC_EVENTS)
    ]
    return lines, sorted(scheduler.counters.as_dict().items())


def capture() -> dict[str, str]:
    from repro.protocols.registry import PROTOCOLS

    digests = {}
    for name in PROTOCOLS:
        lines, counters = cc_event_lines(name)
        seen = {json.loads(line)["name"] for line in lines}
        # Not vacuous: the run really exercised the component under test.
        if name in LOCK_BASED:
            assert {"lock.block", "lock.deadlock"} <= seen, (name, seen)
        if name in TIMESTAMP_BASED:
            assert "txn.block" in seen, (name, seen)
        text = "\n".join(lines) + "\n" + repr(counters)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("hashseed", ["0", "7"])
def test_cc_event_streams_are_pinned(hashseed):
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, __file__],
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hashseed},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert dict(line.split() for line in done.stdout.splitlines()) == PINNED


if __name__ == "__main__":
    for name, digest in capture().items():
        print(name, digest)
