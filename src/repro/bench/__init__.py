"""Benchmark harness: runner, metrics, experiment suite, table rendering."""

from repro.bench.experiments import ExperimentResult
from repro.bench.metrics import RunMetrics
from repro.bench.runner import SimConfig, run_simulation
from repro.bench.tables import print_table, render_table

__all__ = [
    "ExperimentResult",
    "RunMetrics",
    "SimConfig",
    "print_table",
    "render_table",
    "run_simulation",
]
