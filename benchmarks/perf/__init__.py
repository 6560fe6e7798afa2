"""Host-time and per-layer performance benchmark over the five topologies.

See ``README.md`` in this directory; ``BENCHMARK.json`` at the repository
root names the command, workloads and metrics.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def use_checkout_source() -> None:
    """Measure this checkout's ``src/``, never whatever copy is installed."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise LookupError(f"no program to measure: {src / 'repro'} does not exist")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
