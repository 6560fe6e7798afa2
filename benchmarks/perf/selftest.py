"""``--selftest``: is the benchmark itself sound?  Tiny sizes, no gating.

A benchmark never seen to discriminate is not evidence, so besides the
bookkeeping checks (every metric emitted, copies of the tables agree,
same seed repeats exactly) there is a *sensitivity* case: a busy loop
injected into one layer must show up on the workload that leans on that
layer several times more than on the workload that does not.
"""

from __future__ import annotations

import json
import time
from typing import Any

from . import ROOT, shims, use_checkout_source
from .runner import run_child, run_workload
from .spec import END_TO_END, PER_LAYER, UNRESOLVED, WORKLOAD_BY_NAME, WORKLOADS

SCALE = 0.06  # share of the real pass length
BUSY_US = 30.0
#: "Several times more": the leaning workload must move this much more.
DISCRIMINATION = 3.0
READ_TARGET = "repro.storage.mvstore.MVStore.read_snapshot"
LOCK_TARGET = "repro.cc.lock_manager.LockManager.acquire"


def _tiny(name: str) -> dict[str, Any]:
    w = WORKLOAD_BY_NAME[name]
    slices = max(int(w.slices * SCALE), 12)
    return {
        "horizon": slices * (w.horizon / w.slices),
        "slices": slices,
        "warmup": w.warmup * 0.25,
        "traced_share": 0.5,
        "verify_share": 0.5,
        "profile_share": 0.34,
    }


def _pass(name: str, mode: str, seed: int = 0, inject: list | None = None) -> dict[str, Any]:
    spec = {"workload": name, "seed": seed, "mode": mode, "overrides": _tiny(name)}
    if inject:
        spec["inject"] = inject
    return run_child(spec)


def _exact(name: str, seed: int) -> list:
    """The numbers that must repeat exactly under a seed: every vt metric
    and count of an untraced pass, every calls-per-commit of a traced one."""
    untraced, traced = _pass(name, "untraced", seed), _pass(name, "traced", seed)
    calls = {k: v for k, v in traced["layers"]["metrics"].items() if k.endswith("_per_commit")}
    return [untraced["vt"], untraced["counts"], calls]


def selftest() -> int:
    use_checkout_source()
    started = time.monotonic()
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    # -- the tables and their copies ------------------------------------------
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in benchmark["workloads"]] == [w.name for w in WORKLOADS],
           "BENCHMARK.json workloads match spec.WORKLOADS")
    expect(all(w["why"] == WORKLOAD_BY_NAME[w["name"]].why for w in benchmark["workloads"]),
           "BENCHMARK.json workload reasons match spec")
    expect(benchmark["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ], "BENCHMARK.json end_to_end matches spec.END_TO_END")
    expect(benchmark["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ], "BENCHMARK.json per_layer matches spec.PER_LAYER")
    produced = {metric for pair in shims.GROUPS.values() for metric in pair if metric}
    expect(produced <= {m.name for m in PER_LAYER}, "every shim group feeds a declared metric")

    # -- a wrap target that no longer exists: nulls, never a crash --------------
    recorder, installed = shims.Recorder(), shims.Installed()
    try:
        unresolved = shims.install(installed, recorder, targets=(
            ("storage.read", "repro.storage.mvstore.MVStore.renamed_away", None, None),
            ("cc.lock", LOCK_TARGET, 1, None),
        ))
    finally:
        installed.remove()
    summary = recorder.summary(commits=1)["metrics"]
    expect(len(unresolved) == 1 and unresolved[0].startswith("storage.read:"),
           "a vanished wrap target is listed as unresolved")
    expect(summary["storage.read_self_share"] == UNRESOLVED
           and summary["storage.read_calls_per_commit"] == UNRESOLVED
           and summary["cc.self_share"] != UNRESOLVED,
           "only the vanished target's metrics read unresolved")
    expect(installed.pristine(), "patched classes are pristine after removal")

    # -- every workload, tiny: every named metric, span accounting --------------
    base: dict[str, dict[str, Any]] = {}
    for w in WORKLOADS:
        result = base[w.name] = run_workload(
            w.name, 0, seconds=0, trace=1, overrides=_tiny(w.name), verify=False
        )
        named = (set(result["end_to_end"]) == {m.name for m in END_TO_END}
                 and set(result["per_layer"]) == {m.name for m in PER_LAYER})
        numeric = all(isinstance(v, (int, float)) for table in ("end_to_end", "per_layer")
                      for v in result[table].values())
        by_name = {c["name"]: c for c in result["checks"]}
        expect(named and numeric, f"{w.name}: every named metric emitted as a number")
        for check in ("span_self_times_sum_to_root", "shims_do_not_perturb",
                      "patched_classes_pristine", "same_seed_passes_identical"):
            expect(by_name[check]["ok"], f"{w.name}: {check} {by_name[check]['detail']}")
        expect(not result["details"]["unresolved_layers"], f"{w.name}: every wrap target resolves")
    expect(base["single_rw"]["per_layer"]["obs.events_per_commit"] == 0,
           "NULL_TRACER: no tracer events on single_rw")
    expect(base["single_observed"]["per_layer"]["obs.events_per_commit"] > 0,
           "single_observed emits tracer events")

    # -- same seed repeats exactly, another seed does not -----------------------
    first = _exact("single_rw", 0)
    expect(_exact("single_rw", 0) == first, "same seed: vt metrics and counts identical")
    expect(_exact("single_rw", 1) != first, "other seed: vt metrics and counts differ")

    # -- sensitivity ---------------------------------------------------------------
    # Cost of one layer per commit, in kernel iterations: its self share of
    # the traced pass times that pass's cost per commit.  (A share alone
    # saturates towards 1, so it cannot rise "several times more".)
    def costs(name: str, share: str, inject: list | None = None) -> tuple[float, float]:
        untraced = _pass(name, "untraced", inject=inject)["host"]["iters_per_commit"]
        traced = _pass(name, "traced", inject=inject)
        return untraced, traced["layers"]["metrics"][share] * traced["host"]["iters_per_commit"]

    for target, share, leans, other in (
        (READ_TARGET, "storage.read_self_share", "single_ro_scan", "single_hot_write"),
        (LOCK_TARGET, "cc.self_share", "single_hot_write", "single_ro_scan"),
    ):
        inject = [{"target": target, "busy_us": BUSY_US}]
        drop, rise = {}, {}
        for name in (leans, other):
            run_before, layer_before = costs(name, share)
            run_after, layer_after = costs(name, share, inject)
            drop[name] = run_after / run_before - 1.0  # = commits_per_cal_s before / after - 1
            rise[name] = layer_after - layer_before
        short = target.rsplit(".", 1)[-1]
        print(f"  {short} +{BUSY_US:.0f}us: commits_per_cal_s drop {leans} {drop[leans]:+.1%} "
              f"vs {other} {drop[other]:+.1%}; {share.replace('_share', '')} per commit "
              f"{rise[leans]:+.0f} vs {rise[other]:+.0f} iterations")
        expect(drop[leans] > 0.1 and drop[leans] > DISCRIMINATION * max(drop[other], 0.0),
               f"slowing {short} costs {leans} several times more than {other}")
        expect(rise[leans] > 0 and rise[leans] > DISCRIMINATION * max(rise[other], 0.0),
               f"... and the traced run charges it to {share.split('_self')[0]} there several times more")

    elapsed = time.monotonic() - started
    print(f"selftest: {'PASS' if not failures else 'FAIL'} in {elapsed:.1f}s"
          + "".join(f"\n  failed: {f}" for f in failures))
    return 1 if failures else 0
