"""Parent side: repeats child passes and reduces them to named metrics.

One benchmark *run* (what the driver invokes) is, for one workload:

* a ``verify`` pass — output checks, nothing timed;
* ``--trace 0``: untraced passes until ``--seconds`` have gone by (three at
  least, so set-up time and peak memory are medians of several set-ups),
  reduced to the end-to-end metrics;
* ``--trace 1``: alternating untraced and traced passes for the same time,
  one ``profile`` pass, reduced to the per-layer metrics.

Each pass is its own child process, run one after another: a fresh
interpreter, imports and set-up every time, which is what ``setup_s``
measures.  Passes of one run share the seed, so every virtual-time number
and count must come out identical; that is checked, not assumed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from .spec import CAL_SECOND_ITERS, END_TO_END, PER_LAYER, UNRESOLVED, WORKLOAD_BY_NAME

MIN_UNTRACED_PASSES = 3
PASS_TIMEOUT_S = 150
_MAIN = Path(__file__).resolve().parent / "__main__.py"


class PassFailed(RuntimeError):
    """A child pass exited non-zero or printed no result."""


def run_child(spec: dict[str, Any]) -> dict[str, Any]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    spec = dict(spec, t0=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(_MAIN), "--child", json.dumps(spec)],
            capture_output=True, text=True, timeout=PASS_TIMEOUT_S, env=env,
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(
            f"{spec['mode']} pass of {spec['workload']} exceeded {PASS_TIMEOUT_S} s"
        ) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(
            f"{spec['mode']} pass of {spec['workload']} exited {proc.returncode}:\n"
            + proc.stderr.strip()[-2000:]
        )
    return json.loads(lines[-1])


def _fingerprint(result: dict[str, Any]) -> str:
    """What must repeat exactly between same-seed passes of equal length."""
    return json.dumps(
        [result["vt"], result["counts"], result["commits"], result["events"]], sort_keys=True
    )


def _pooled_cps(passes: list[dict[str, Any]], stop: int | None = None) -> float:
    """``commits_per_cal_s`` over the first ``stop`` slices (default: every
    slice) of every pass, plus, on the certified workload, the median
    checker cost per commit over every repeat of every pass."""
    slices = [v for p in passes for v in p["host"]["slice_iters_per_commit"][:stop]]
    checks = [v for p in passes for v in p["host"]["check_iters_per_commit"]]
    return CAL_SECOND_ITERS / (statistics.median(slices) + statistics.median(checks))


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: int,
    trace_out: str | None = None,
    overrides: dict[str, Any] | None = None,
    verify: bool = True,
) -> dict[str, Any]:
    """One run; returns ``{"correct", "attempted", "failed", "end_to_end",
    "per_layer", "checks", "details"}``; the metric tables are ``name ->
    value`` and ``per_layer`` is empty unless ``trace``.

    ``overrides`` is for the self-test, which runs tiny sizes;
    ``verify=False`` is for a caller that has just verified these inputs."""
    if name not in WORKLOAD_BY_NAME:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_BY_NAME)}")
    base = {"workload": name, "seed": seed}
    if overrides:
        base["overrides"] = overrides
    started = time.monotonic()
    checks: list[dict[str, Any]] = []
    if verify:
        checks += run_child(dict(base, mode="verify"))["checks"]

    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    reference: list[dict[str, Any]] = []  # observed workload, pipeline off
    observed = WORKLOAD_BY_NAME[name].observed
    min_passes = 1 if trace else MIN_UNTRACED_PASSES
    while True:
        untraced.append(run_child(dict(base, mode="untraced")))
        if trace:
            spec = dict(base, mode="traced")
            if trace_out and not traced:
                spec["trace_out"] = trace_out
            traced.append(run_child(spec))
            if observed:
                reference.append(run_child(dict(
                    base, mode="untraced", overrides=dict(overrides or {}, observed=False)
                )))
        # Passes are whole: stop at the pass boundary nearest to ``seconds``.
        elapsed = time.monotonic() - started
        if len(untraced) >= min_passes and elapsed + elapsed / len(untraced) / 2 >= seconds:
            break
    profile = run_child(dict(base, mode="profile")) if trace else None

    first = untraced[0]
    every = untraced + traced + reference + ([profile] if profile else [])
    checks.append({
        "name": "same_seed_passes_identical",
        "ok": len({_fingerprint(p) for p in untraced}) == 1
        and len({_fingerprint(p) for p in traced}) <= 1,
        "detail": f"untraced={len(untraced)} traced={len(traced)}",
    })
    checks.append({
        "name": "scripts_outlast_every_pass",
        "ok": all(p["ran_dry"] == 0 for p in every),
        "detail": f"ran_dry={[p['ran_dry'] for p in every]}",
    })
    checks.append({
        "name": "patched_classes_pristine",
        "ok": all(p["shims_pristine"] for p in every),
        "detail": "",
    })
    checks.append({
        # p99 is the top percentile reported: >= 10 samples beyond it per class.
        "name": "enough_latency_samples",
        "ok": first["vt"]["rw_samples"] >= 1000 and first["vt"]["ro_samples"] >= 1000,
        "detail": f"rw={first['vt']['rw_samples']} ro={first['vt']['ro_samples']}",
    })

    details: dict[str, Any] = {
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "commits_per_pass": first["commits"],
        "slices_per_pass": first["slices"],
        "rw_samples": first["vt"]["rw_samples"],
        "ro_samples": first["vt"]["ro_samples"],
        # Host metrics, one value per pass: the run-to-run spread --compare reads.
        "per_pass": {
            "commits_per_cal_s": [p["host"]["commits_per_cal_s"] for p in untraced],
            "peak_rss_mb": [p["rss_mb"] for p in untraced],
            "setup_s": [p["setup_s"] for p in untraced],
            "setup_wall_s": [p["setup_wall_s"] for p in untraced],
        },
    }
    if "checker" in first:
        details["checker"] = first["checker"]

    end_to_end = {
        "commits_per_cal_s": _pooled_cps(untraced),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
        "setup_s": statistics.median(p["setup_s"] for p in untraced),
        **{m.name: first["vt"][m.name] for m in END_TO_END if m.clock == "vt"},
    }
    per_layer: dict[str, float] = {}
    if trace:
        per_layer, details["unresolved_layers"] = _per_layer(untraced, traced, reference, profile)
        # Shims must not perturb behaviour: at the traced pass's stop
        # boundary both runs have committed and dispatched the same.
        stop = traced[0]["slices"]
        checks.append({
            "name": "shims_do_not_perturb",
            "ok": traced[0]["boundaries"][-1] == first["boundaries"][stop - 1],
            "detail": f"traced={traced[0]['boundaries'][-1]} untraced={first['boundaries'][stop - 1]}",
        })
        root, self_sum = traced[0]["layers"]["root_ns"], traced[0]["layers"]["raw_self_sum_ns"]
        checks.append({
            "name": "span_self_times_sum_to_root",
            "ok": abs(self_sum - root) <= 0.01 * root,
            "detail": f"self_sum={self_sum} root={root}",
        })

    details["wall_s"] = time.monotonic() - started
    return {
        "correct": all(c["ok"] for c in checks),
        "attempted": first["attempted"],
        "failed": first["failed"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "checks": checks,
        "details": details,
    }


def _per_layer(untraced, traced, reference, profile) -> tuple[dict[str, float], list[str]]:
    first = untraced[0]
    metrics: dict[str, float] = {}
    host = {key: statistics.median(p["host"][key] for p in untraced) for key in (
        "commits_per_s_raw", "cal_kernel_ms", "noise_cv", "cost_growth_ratio", "checker_share",
    )}
    metrics["host.commits_per_s_raw"] = host["commits_per_s_raw"]
    metrics["host.cal_kernel_ms"] = host["cal_kernel_ms"]
    metrics["host.noise_cv"] = host["noise_cv"]
    metrics["host.cost_growth_ratio"] = host["cost_growth_ratio"]
    metrics["host.py_calls_per_commit"] = profile["py_calls_per_commit"]
    # Same slice indices on both sides: where cost grows with run length the
    # later, untraced-only slices would read as shim overhead.
    metrics["host.trace_overhead_ratio"] = (
        _pooled_cps(untraced, stop=traced[0]["slices"]) / _pooled_cps(traced)
    )
    metrics["histories.checker_share"] = host["checker_share"]
    metrics["histories.checker_edges_per_txn"] = (
        first["checker"]["edges"] / first["checker"]["transactions"] if "checker" in first else 0.0
    )
    metrics["obs.overhead_ratio"] = (
        _pooled_cps(reference) / _pooled_cps(untraced) if reference else 0.0
    )
    for key in ("sim.abort_rate", "sim.ro_staleness_mean", "sim.failed_share",
                "replica.quorum_wait_vt_p50"):
        metrics[key] = first["vt"][key]
    metrics.update(first["counts"])
    # Shares are host time: median over traced passes.  Counts are exact.
    layer_names = traced[0]["layers"]["metrics"].keys()
    for key in layer_names:
        metrics[key] = statistics.median(p["layers"]["metrics"][key] for p in traced)
    unresolved = traced[0]["unresolved_layers"]
    missing = [m.name for m in PER_LAYER if m.name not in metrics]
    if missing:
        raise PassFailed(f"per-layer metrics never produced: {missing}")
    return {m.name: float(metrics[m.name]) for m in PER_LAYER}, unresolved


def _table(result: dict[str, Any], trace: int):
    return (PER_LAYER, result["per_layer"]) if trace else (END_TO_END, result["end_to_end"])


def result_line(result: dict[str, Any], trace: int) -> str:
    """The driver's contract: one JSON object, exactly these four keys."""
    table, values = _table(result, trace)
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in table},
    })


def render(name: str, result: dict[str, Any], trace: int) -> str:
    """Every metric by name with its unit and clock, then the checks."""
    table, values = _table(result, trace)
    lines = [f"# {name} ({'per-layer, traced' if trace else 'end-to-end, untraced'})"]
    for m in table:
        value = values[m.name]
        shown = "unresolved" if trace and value == UNRESOLVED else f"{value:.6g}"
        lines.append(f"{m.name:<36} {shown:>14} {m.unit:<8} [{m.clock}]")
    details = result["details"]
    lines.append(
        f"  passes={details['passes']} commits/pass={details['commits_per_pass']} "
        f"slices/pass={details['slices_per_pass']} rw_samples={details['rw_samples']} "
        f"ro_samples={details['ro_samples']} wall={details['wall_s']:.1f}s"
    )
    for entry in details.get("unresolved_layers", ()):
        lines.append(f"  unresolved: {entry}")
    for check in result["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        lines.append(f"  check {mark} {check['name']} {check['detail']}")
    lines.append(f"  attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    return "\n".join(lines)
