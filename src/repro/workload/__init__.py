"""Synthetic workload generation."""

from repro.workload.mixes import MIXES, balanced, contended_small, write_heavy_hotspot
from repro.workload.spec import OpSpec, TxnSpec, WorkloadGenerator, WorkloadSpec

__all__ = [
    "MIXES",
    "OpSpec",
    "TxnSpec",
    "WorkloadGenerator",
    "WorkloadSpec",
    "balanced",
    "contended_small",
    "write_heavy_hotspot",
]
