"""Ablation studies for the library's design choices.

Each exercises an axis the paper flags as orthogonal to the version-control
mechanism:

* **garbage-collection strategy** (Section 6): periodic vs eager vs
  budgeted collectors over the same horizon rule;
* **deadlock victim policy** (a 2PL substrate choice): requester vs
  youngest vs oldest;
* **adaptive concurrency control** (Section 1's extensibility claim):
  the mode-switching scheduler against each fixed mode on a workload whose
  contention shifts mid-run;
* **bounded collection** (:func:`bounded_gc_block`, the bench artifact's
  ``gc`` block): range-tracked vs horizon-only under a pinned long scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bench.experiments import ExperimentResult
from repro.bench.runner import SimConfig, run_simulation
from repro.core.transaction import Transaction, TxnClass
from repro.core.version_control import VersionControl
from repro.errors import TransactionAborted, VersionNotFound
from repro.protocols.adaptive import AdaptiveVCScheduler
from repro.protocols.registry import make_scheduler
from repro.protocols.vc_two_phase_locking import VC2PLScheduler
from repro.sim.engine import Simulator
from repro.storage.gc import GarbageCollector
from repro.storage.gc_strategies import BudgetedCollector, EagerCollector
from repro.storage.mvstore import MVStore
from repro.workload.mixes import balanced, contended_small, write_heavy_hotspot
from repro.workload.spec import WorkloadGenerator, WorkloadSpec


# -- GC strategy ablation --------------------------------------------------------


def ablation_gc_strategies(seed: int = 0, duration: float = 400.0) -> ExperimentResult:
    """Footprint and work profile of the three collection strategies."""
    rows = []
    summary: dict[str, Any] = {}
    configs = [
        ("none", None, 0.0),
        ("periodic(25)", None, 25.0),
        ("eager(stride=5)", "eager", 0.0),
        ("budgeted(8, every 10)", "budgeted", 10.0),
    ]
    for label, strategy, period in configs:
        scheduler = VC2PLScheduler()
        if strategy == "eager":
            scheduler.gc = EagerCollector(
                scheduler.store, scheduler.vc, scheduler.ro_registry, stride=5
            )
        elif strategy == "budgeted":
            scheduler.gc = BudgetedCollector(
                scheduler.store, scheduler.vc, scheduler.ro_registry, budget=8
            )
        # Sample the version footprint at every visibility advance.
        peak = {"value": 0}

        def sample(_event, _n, scheduler=scheduler, peak=peak):
            count = scheduler.store.version_count()
            if count > peak["value"]:
                peak["value"] = count

        scheduler.vc.subscribe(sample)
        workload = balanced(seed=seed, ro_fraction=0.3)
        config = SimConfig(duration=duration, n_clients=8, gc_period=period)
        metrics = run_simulation(scheduler, workload, config)
        gc = scheduler.gc
        per_pass = gc.total_discarded / gc.passes if gc.passes else 0.0
        rows.append(
            [
                label,
                peak["value"],
                metrics.version_count_final,
                gc.passes,
                gc.total_discarded,
                per_pass,
                metrics.aborts_ro,
            ]
        )
        summary[f"{label}.peak"] = peak["value"]
        summary[f"{label}.final"] = metrics.version_count_final
        summary[f"{label}.passes"] = gc.passes
        summary[f"{label}.ro_aborts"] = metrics.aborts_ro
    return ExperimentResult(
        "ABL-GC",
        "Garbage-collection strategies (vc-2pl, same horizon rule)",
        ["strategy", "peak versions", "final versions", "passes", "discarded", "discarded/pass", "RO aborts"],
        rows,
        summary,
    )


# -- victim policy ablation --------------------------------------------------------


def ablation_victim_policy(seed: int = 0, duration: float = 500.0) -> ExperimentResult:
    """Deadlock victim selection under heavy lock contention."""
    rows = []
    summary: dict[str, Any] = {}
    for policy in ("requester", "youngest", "oldest"):
        scheduler = make_scheduler("vc-2pl", victim_policy=policy)
        workload = contended_small(seed=seed, ro_fraction=0.2)
        metrics = run_simulation(
            scheduler, workload, SimConfig(duration=duration, n_clients=12)
        )
        rows.append(
            [
                policy,
                metrics.counter("deadlock"),
                metrics.aborts_rw,
                metrics.restarts,
                metrics.throughput,
                metrics.latency_rw.p95,
            ]
        )
        summary[f"{policy}.deadlocks"] = metrics.counter("deadlock")
        summary[f"{policy}.throughput"] = metrics.throughput
        summary[f"{policy}.serializable"] = metrics.serializable
    return ExperimentResult(
        "ABL-VICTIM",
        "Deadlock victim policies (vc-2pl, contended workload)",
        ["policy", "deadlocks", "RW aborts", "restarts", "throughput", "RW latency p95"],
        rows,
        summary,
    )


# -- lock granularity ablation ------------------------------------------------------


def ablation_lock_granularity(seed: int = 0, rounds: int = 60, n_keys: int = 40) -> ExperimentResult:
    """Flat per-key locks vs one root lock for read-write scans.

    A mixed load of single-key updates and whole-database read-write scans,
    run through vc-2pl (a scan = ``n_keys`` S locks) and vc-2pl-granular
    (a scan = 1 root S lock + automatic intentions elsewhere).  Counts lock
    grants as the cost proxy; correctness is identical (both 1SR).
    """
    import random

    from repro.protocols.vc_granular import VCGranular2PLScheduler
    from repro.protocols.vc_two_phase_locking import VC2PLScheduler

    rows = []
    summary: dict[str, Any] = {}
    for label in ("vc-2pl (flat)", "vc-2pl-granular"):
        rng = random.Random(seed)
        granular = label == "vc-2pl-granular"
        scheduler = VCGranular2PLScheduler() if granular else VC2PLScheduler()
        setup = scheduler.begin()
        for i in range(n_keys):
            scheduler.write(setup, f"k{i}", 0).result()
        scheduler.commit(setup).result()
        for _ in range(rounds):
            if rng.random() < 0.5:
                txn = scheduler.begin()
                key = f"k{rng.randrange(n_keys)}"
                value = scheduler.read(txn, key).result()
                scheduler.write(txn, key, value + 1).result()
                scheduler.commit(txn).result()
            else:
                txn = scheduler.begin()
                if granular:
                    scheduler.scan(txn).result()
                else:
                    for i in range(n_keys):
                        scheduler.read(txn, f"k{i}").result()
                scheduler.commit(txn).result()
        if granular:
            grants = scheduler.locks.grants
        else:
            grants = scheduler.counters.get("cc.rw")
        from repro.histories.checker import check_one_copy_serializable

        serializable = check_one_copy_serializable(scheduler.history).serializable
        rows.append([label, rounds, grants, serializable])
        summary[f"{label}.grants"] = grants
        summary[f"{label}.serializable"] = serializable
    return ExperimentResult(
        "ABL-GRANULARITY",
        "Lock grants: flat per-key locking vs intention-lock scans",
        ["locking", "rounds", "lock grants", "1SR"],
        rows,
        summary,
    )


# -- OCC validation strategy ablation ---------------------------------------------


def ablation_occ_validation(seed: int = 0, duration: float = 500.0) -> ExperimentResult:
    """Backward vs forward validation under the same version-control module.

    Backward (first committer wins) wastes the loser's whole execution;
    forward (wound the readers) kills conflicting readers early.  The table
    reports commits, aborts, and the wasted-work proxy — operations executed
    by transactions that eventually aborted — under rising contention.
    """
    rows = []
    summary: dict[str, Any] = {}
    for theta, label in ((0.4, "mild"), (1.2, "hot")):
        for name in ("vc-occ", "vc-occ-fwd"):
            workload = write_heavy_hotspot(seed=seed, zipf_theta=theta, n_objects=30)
            metrics = run_simulation(
                make_scheduler(name), workload, SimConfig(duration=duration, n_clients=10)
            )
            # Wasted work: CC operations performed on behalf of read-write
            # transactions, minus those of committed ones (approximated via
            # ops per commit x commits).
            rw_ops = metrics.counter("cc.rw") - metrics.counter("cc.rw.validate") - metrics.counter(
                "cc.rw.validate-forward"
            )
            attempts = metrics.commits_rw + metrics.aborts_rw
            ops_per_attempt = rw_ops / attempts if attempts else 0.0
            wasted = ops_per_attempt * metrics.aborts_rw
            rows.append(
                [
                    label,
                    name,
                    metrics.commits_rw,
                    metrics.aborts_rw,
                    metrics.counter("occ.wounded"),
                    wasted,
                    metrics.throughput,
                ]
            )
            summary[f"{name}@{label}.commits"] = metrics.commits_rw
            summary[f"{name}@{label}.aborts"] = metrics.aborts_rw
            summary[f"{name}@{label}.wasted_ops"] = wasted
            summary[f"{name}@{label}.serializable"] = metrics.serializable
    return ExperimentResult(
        "ABL-OCC",
        "OCC validation strategy: backward (restart loser) vs forward (wound readers)",
        ["contention", "protocol", "RW commits", "RW aborts", "wounded", "wasted ops (est)", "throughput"],
        rows,
        summary,
    )


# -- adaptive CC ablation --------------------------------------------------------------


@dataclass
class _PhaseMetrics:
    commits: int = 0
    aborts: int = 0
    restarts: int = 0


def _run_two_phase(scheduler, seed: int, duration: float) -> dict[str, Any]:
    """Closed-loop run whose contention flips at half time.

    Phase 1: severe hot spot (OCC thrashes).  Phase 2: wide, read-mostly
    (locking overhead is pure waste).  Returns per-phase commit/abort
    counts plus the final serializability verdict.
    """
    hot = write_heavy_hotspot(seed=seed, n_objects=8, zipf_theta=1.4)
    cool = balanced(seed=seed + 1, n_objects=400, ro_fraction=0.6, write_fraction=0.3)
    sim = Simulator()
    hot_gen = WorkloadGenerator(hot)
    cool_gen = WorkloadGenerator(cool)
    think_rng = hot_gen.streams.stream("think")
    half = duration / 2
    phases = {"hot": _PhaseMetrics(), "cool": _PhaseMetrics()}

    def client(_i: int):
        while sim.now < duration:
            yield think_rng.expovariate(0.5)
            if sim.now >= duration:
                return
            in_hot = sim.now < half
            spec = (hot_gen if in_hot else cool_gen).next_txn()
            phase = phases["hot" if in_hot else "cool"]
            for attempt in range(6):
                txn = scheduler.begin(read_only=spec.read_only)
                try:
                    for op in spec.ops:
                        yield 1.0
                        if op.kind == "r":
                            yield scheduler.read(txn, op.key)
                        else:
                            yield scheduler.write(txn, op.key, sim.now)
                    yield scheduler.commit(txn)
                except (TransactionAborted, VersionNotFound):
                    scheduler.abort(txn)
                    phase.aborts += 1
                    phase.restarts += 1
                    continue
                phase.commits += 1
                break

    for i in range(10):
        sim.spawn(client(i))
    sim.run()
    from repro.histories.checker import check_one_copy_serializable

    report = check_one_copy_serializable(scheduler.history)
    return {
        "hot": phases["hot"],
        "cool": phases["cool"],
        "serializable": report.serializable,
        "switches": getattr(scheduler, "switches", []),
    }


def ablation_adaptive(seed: int = 0, duration: float = 600.0) -> ExperimentResult:
    """Adaptive CC vs fixed modes on a contention-shifting workload."""
    rows = []
    summary: dict[str, Any] = {}
    candidates = [
        ("vc-adaptive", lambda: AdaptiveVCScheduler(window=20, high_watermark=0.2, low_watermark=0.05)),
        ("vc-occ (fixed)", lambda: make_scheduler("vc-occ")),
        ("vc-2pl (fixed)", lambda: make_scheduler("vc-2pl")),
    ]
    for label, factory in candidates:
        scheduler = factory()
        result = _run_two_phase(scheduler, seed, duration)
        hot, cool = result["hot"], result["cool"]
        total_commits = hot.commits + cool.commits
        total_aborts = hot.aborts + cool.aborts
        rows.append(
            [
                label,
                hot.commits,
                hot.aborts,
                cool.commits,
                cool.aborts,
                total_commits,
                len(result["switches"]),
                result["serializable"],
            ]
        )
        summary[f"{label}.commits"] = total_commits
        summary[f"{label}.aborts"] = total_aborts
        summary[f"{label}.switches"] = len(result["switches"])
        summary[f"{label}.serializable"] = result["serializable"]
    return ExperimentResult(
        "ABL-ADAPT",
        "Adaptive CC vs fixed modes across a contention shift",
        ["scheduler", "hot commits", "hot aborts", "cool commits", "cool aborts", "total commits", "switches", "1SR"],
        rows,
        summary,
    )


# -- bounded-GC ablation (the bench artifact's ``gc`` block) --------------------


#: The write hammer: committed writers, chains, rounds between sweeps, and
#: the round at which the pinned scan registers.
HAMMER_ROUNDS, HAMMER_KEYS, HAMMER_SWEEP_EVERY, HAMMER_PIN_AT = 400, 8, 10, 20


def _write_hammer(*, bounded: bool, pinned: bool) -> dict[str, Any]:
    """One deterministic write-hammer run under one collector configuration.

    Committed writers round-robin over the chains with a periodic sweep;
    with ``pinned`` a read-only transaction registers early and never
    leaves — the HTAP long scan.  Reports the peak and final *post-sweep*
    footprints plus the sweep-cost counters, so ranged-vs-legacy and
    pinned-vs-unpinned separate cleanly.
    """
    store = MVStore()
    vc = VersionControl()
    gc = GarbageCollector(store, vc, bounded=bounded)
    peak = 0
    for round_no in range(1, HAMMER_ROUNDS + 1):
        txn = Transaction()
        vc.vc_register(txn)
        store.install(f"k{round_no % HAMMER_KEYS}", txn.tn, round_no)
        vc.vc_complete(txn)
        if pinned and round_no == HAMMER_PIN_AT:
            scan = Transaction(TxnClass.READ_ONLY)
            scan.sn = vc.vc_start()
            gc.registry.register(scan)
        if round_no % HAMMER_SWEEP_EVERY == 0:
            gc.collect()
            live, _ = store.chain_stats()
            if live > peak:
                peak = live
    gc.collect()
    return {
        "peak_live": peak,
        "final_live": store.chain_stats()[0],
        "discarded": gc.total_discarded,
        "interior": gc.interior_discarded,
        "scan_per_reclaimed": round(gc.scan_cost_per_reclaimed(), 6) if bounded else None,
    }


def bounded_gc_block(seed: int) -> dict[str, Any]:
    """Bounded-GC ablation → the artifact's ``gc`` block.

    Four deterministic configurations: {ranged, legacy} x {pinned long
    scan, no pin}.  The headline is ``pinned_ratio`` — peak footprint of
    the legacy horizon collector over the range-tracked one under a pinned
    scan; legacy grows with run length while ranged stays flat, which is
    the whole point of the bounded collector.
    """
    del seed  # fully deterministic: no randomness needed
    ranged_pin = _write_hammer(bounded=True, pinned=True)
    ranged_nopin = _write_hammer(bounded=True, pinned=False)
    legacy_pin = _write_hammer(bounded=False, pinned=True)
    legacy_nopin = _write_hammer(bounded=False, pinned=False)
    ratio = (
        legacy_pin["peak_live"] / ranged_pin["peak_live"]
        if ranged_pin["peak_live"]
        else 0.0
    )
    violations: list[str] = []
    # The bound: one pin retains at most one extra version per chain, so a
    # pinned ranged run may exceed the unpinned one by the chain count, not
    # by O(rounds).
    if ranged_pin["peak_live"] > ranged_nopin["peak_live"] + HAMMER_KEYS:
        violations.append(
            f"ranged peak grew with the pin: {ranged_pin['peak_live']} vs "
            f"{ranged_nopin['peak_live']} + {HAMMER_KEYS} chains"
        )
    if legacy_pin["peak_live"] <= ranged_pin["peak_live"]:
        violations.append("legacy collector not worse under a pin: ablation inverted")
    if not ranged_pin["interior"]:
        violations.append("no interior reclamation under a pinned scan")
    return {
        "ranged_pinned": ranged_pin,
        "ranged_unpinned": ranged_nopin,
        "legacy_pinned": legacy_pin,
        "legacy_unpinned": legacy_nopin,
        "pinned_ratio": round(ratio, 6),
        "violations": violations,
        "ok": not violations,
    }
