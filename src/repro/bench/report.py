"""Regenerate every experiment table in one run.

Usage::

    python -m repro.bench.report            # print all tables
    python -m repro.bench.report EXP-A ...  # print selected experiments

The output is the source of the measured tables in EXPERIMENTS.md.
"""

from __future__ import annotations

import sys
import time

from repro.bench import ablations, experiments
from repro.bench.tables import render_table

#: Experiment id -> the function that runs it; the ids key EXPERIMENTS.md's
#: tables, DESIGN.md's index and the claim rows of tests/bench/test_claims.py.
EXPERIMENTS = {
    "EXP-A": experiments.exp_a_ro_overhead,
    "EXP-B": experiments.exp_b_ro_caused_aborts,
    "EXP-C": experiments.exp_c_ro_blocking,
    "EXP-D": experiments.exp_d_visibility_lag,
    "EXP-E": experiments.exp_e_mv_vs_sv,
    "EXP-F": experiments.exp_f_ctl_cost,
    "EXP-G": experiments.exp_g_deadlock,
    "EXP-H": experiments.exp_h_gc,
    "EXP-I": experiments.exp_i_serializability,
    "EXP-J": experiments.exp_j_distributed,
    "EXP-J2": experiments.exp_j2_site_scaling,
    "EXP-K": experiments.exp_k_weihl,
    "EXP-L": experiments.exp_l_uniformity,
    "ABL-GC": ablations.ablation_gc_strategies,
    "ABL-VICTIM": ablations.ablation_victim_policy,
    "ABL-ADAPT": ablations.ablation_adaptive,
    "ABL-GRANULARITY": ablations.ablation_lock_granularity,
    "ABL-OCC": ablations.ablation_occ_validation,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    selected = argv or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; known: {list(EXPERIMENTS)}")
        return 2
    for name in selected:
        start = time.perf_counter()
        result = EXPERIMENTS[name]()
        elapsed = time.perf_counter() - start
        print()
        print(render_table(result.headers, result.rows, f"{result.exp_id} — {result.title}"))
        print(f"({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
