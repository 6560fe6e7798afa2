"""Versioned benchmark artifacts and the regression comparator.

``python -m repro bench`` runs a named suite of closed-loop benchmarks under
seeded determinism and writes a ``BENCH_<rev>.json`` artifact: per protocol,
throughput, latency percentiles (p50/p95/p99 by transaction class), abort
rates, visibility lag, and critical-path phase shares derived from the span
trees of the traced run.  Because every number is measured in *virtual*
time, the artifact is a pure function of (code, suite, seed): the same
commit produces byte-identical metrics on any machine, which is what makes
``compare`` usable as a CI gate — a regression is a code change, not noise.
(Wall-clock seconds are recorded too, but informationally; the comparator
never looks at them.)

The comparator (:func:`compare`, ``--baseline`` / ``--compare``) diffs two
artifacts and fails on a throughput drop or a p99 latency increase beyond
tolerance (defaults: 10% / 15% — see ``docs/benchmarks.md``).

The committed ``BENCH_baseline.json`` at the repo root is the reference
point; refresh it deliberately (and explain why in the commit) whenever an
intended change moves the numbers.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.bench.metrics import RunMetrics
from repro.bench.runner import SimConfig, run_simulation
from repro.distributed.courier import Courier
from repro.obs.pipeline import ObsPipeline
from repro.obs.profile import aggregate_phase_shares
from repro.obs.spans import transaction_trees
from repro.sim.engine import Simulator
from repro.workload.mixes import MIXES

SCHEMA = "repro.bench/1"

#: Regression tolerances the CI gate enforces (see docs/benchmarks.md).
THROUGHPUT_TOLERANCE = 0.10
P99_TOLERANCE = 0.15


@dataclass(frozen=True)
class Suite:
    """A named benchmark suite: which protocols, which workload, how long."""

    name: str
    protocols: tuple[str, ...]
    mix: str = "balanced"
    duration: float = 300.0
    n_clients: int = 8
    description: str = ""


SUITES: dict[str, Suite] = {
    "quick": Suite(
        name="quick",
        protocols=("vc-2pl", "vc-to", "mv2pl-chan", "sv-2pl", "dvc-2pl", "dmv2pl"),
        duration=300.0,
        description="CI gate: core VC protocols, two baselines, both "
        "distributed databases",
    ),
    "full": Suite(
        name="full",
        protocols=(
            "vc-2pl",
            "vc-to",
            "vc-occ",
            "mvto-reed",
            "mv2pl-chan",
            "weihl-ti",
            "sv-2pl",
            "sv-to",
            "dvc-2pl",
            "dmv2pl",
        ),
        duration=600.0,
        description="every registered protocol plus the distributed pair",
    ),
}

#: Protocols that are distributed databases, not registry schedulers.
DISTRIBUTED = ("dvc-2pl", "dmv2pl")


class _DeclaredReadSites:
    """Adapter making :class:`DistributedMV2PL` drivable by the runner.

    The protocol demands a-priori read-site declaration (the paper's
    criticism); the closed-loop runner has no notion of sites, so the
    adapter declares *all* sites — the pessimal but always-correct choice.
    """

    def __init__(self, db: Any):
        self._db = db

    def begin(self, read_only: bool = False):
        if read_only:
            return self._db.begin(read_only=True, read_sites=sorted(self._db.sites))
        return self._db.begin()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._db, name)


def _make_scheduler(protocol: str, sim: Simulator) -> Any:
    """Instantiate a benchmark subject, distributed ones on ``sim``'s clock."""
    if protocol in DISTRIBUTED:
        from repro.distributed.database import DistributedVCDatabase
        from repro.distributed.dmv2pl import DistributedMV2PL

        courier = Courier(sim=sim, latency=1.0)
        if protocol == "dvc-2pl":
            return DistributedVCDatabase(n_sites=3, courier=courier)
        return _DeclaredReadSites(DistributedMV2PL(n_sites=3, courier=courier))
    from repro.protocols.registry import make_scheduler

    return make_scheduler(protocol)


#: Protocols whose benchmark run is *expected* to violate 1SR: dmv2pl's
#: torn global reads under a-priori read-site declaration are the paper's
#: headline anomaly, so the witness reports them without failing the gate.
EXPECTED_ANOMALOUS = ("dmv2pl",)


def bench_protocol(
    protocol: str,
    suite: Suite,
    seed: int,
    span_capacity: int = 262_144,
) -> dict[str, Any]:
    """One traced benchmark run → one artifact entry for ``protocol``."""
    from repro.obs.witness import WitnessEngine

    sim = Simulator()
    scheduler = _make_scheduler(protocol, sim)
    # The certifier attaches *live* (the ring truncates long runs), so its
    # verdict covers every event, not just the retained suffix.
    certifier = WitnessEngine(seal=True)
    pipeline = ObsPipeline(sim=sim, ring=span_capacity, witness=certifier)
    workload = MIXES[suite.mix](seed=seed)
    config = SimConfig(
        duration=suite.duration,
        n_clients=suite.n_clients,
        # The bench measures performance; correctness has its own tests (and
        # dmv2pl's read-only anomaly would trip the global oracle by design).
        check_serializability=False,
    )
    wall_start = time.perf_counter()
    metrics: RunMetrics = run_simulation(
        scheduler, workload, config, tracer=pipeline.tracer, sim=sim
    )
    wall_clock_s = time.perf_counter() - wall_start
    pipeline.close()

    events = pipeline.events()
    trees = transaction_trees(events)
    committed = [root for root in trees.values() if root.ok is True]
    shares = aggregate_phase_shares(committed)

    vc_lag = None
    if metrics.vc_lag is not None:
        vc_lag = {
            "mean": round(metrics.vc_lag.average(metrics.duration), 6),
            "peak": metrics.vc_lag.maximum,
        }

    slo = _bench_slo(protocol, suite, events)

    witness_report = certifier.report()
    witness = {
        "ok": witness_report["ok"],
        "serializable": witness_report["serializable"],
        "expected_1sr": protocol not in EXPECTED_ANOMALOUS,
        "violation_count": witness_report["violation_count"],
        "late_sealed_reads": witness_report["late_sealed_reads"],
        "peak_tracked": witness_report["peak_tracked"],
        "sealed": witness_report["sealed"],
    }

    return {
        "throughput": round(metrics.throughput, 6),
        "commits": metrics.commits,
        "commits_ro": metrics.commits_ro,
        "commits_rw": metrics.commits_rw,
        "aborts": metrics.aborts,
        "abort_rate_rw": round(metrics.abort_rate_rw, 6),
        "abort_rate_ro": round(metrics.abort_rate_ro, 6),
        "restarts": metrics.restarts,
        "latency": {
            "ro": metrics.latency_ro.as_dict(),
            "rw": metrics.latency_rw.as_dict(),
        },
        "visibility_lag": vc_lag,
        "critical_path": {
            phase: round(share, 6) for phase, share in shares.items()
        },
        "span_trees": len(committed),
        "trace_events": len(events) + (pipeline.ring.dropped if pipeline.ring else 0),
        "wall_clock_s": round(wall_clock_s, 3),
        "slo": slo,
        "witness": witness,
    }


#: Protocols whose read-only path structurally bypasses concurrency control,
#: making "a reader blocked" an unexpected SLO breach rather than a tally.
RO_NEVER_BLOCKS_PREFIXES = ("vc-", "dvc-")


def _bench_slo(
    protocol: str, suite: Suite, events: list[dict[str, Any]]
) -> dict[str, Any]:
    """Replay the run's trace through the SLO watchdogs → compact verdict.

    Recorder-less: the bench wants the verdict (did this run breach a
    promise or change character mid-flight?), not diagnostic bundles.
    The block rides in each protocol entry under a key the regression
    comparator never reads, so older baselines stay comparable.
    """
    from repro.obs.slo import SLOEngine, bench_objectives

    ro_never_blocks = protocol.startswith(RO_NEVER_BLOCKS_PREFIXES)
    engine = SLOEngine(
        bench_objectives(ro_never_blocks=ro_never_blocks),
        window=suite.duration / 16.0,
    )
    for event in events:
        engine.ingest(event)
    engine.finish()
    report = engine.report()
    return {
        "ok": report["ok"],
        "windows": report["windows_closed"],
        "breaches": report["breaches"],
        "objectives": {
            name: {
                "status": entry["status"],
                "violations": entry["violations"],
                "worst": entry["worst"],
            }
            for name, entry in report["objectives"].items()
        },
    }


def bench_qos(seed: int) -> dict[str, Any]:
    """One overload campaign → the artifact's ``qos`` block.

    Headline robustness numbers (shed rate, deadline-miss rate, read-only
    p99 under overload vs. the uncontended baseline) ride along in every
    artifact.  The block is *top-level*, not a protocol entry, so the
    regression comparator — which iterates ``baseline["protocols"]`` only —
    ignores it and older baselines stay comparable.
    """
    from repro.qos.overload import run_overload_campaign

    report = run_overload_campaign(seed, duration=200.0, verify_determinism=False)
    data = report.as_dict()
    block = {
        key: data[key]
        for key in (
            "shed_rate", "deadline_miss_rate", "ro_p99_baseline", "ro_p99_ratio",
            "ro_shed", "staleness_max", "ok", "violations",
        )
    }
    block["ro_p99_under_overload"] = data["ro_p99_overload"]
    block["slo"] = None
    if report.slo is not None:
        block["slo"] = {"ok": report.slo["ok"], "breaches": report.slo["breaches"]}
    return block


def _gc_scenario(
    *, bounded: bool, pinned: bool, rounds: int = 400, n_keys: int = 8,
    sweep_every: int = 10, pin_at: int = 20,
) -> dict[str, Any]:
    """One deterministic write-hammer run under one collector configuration.

    ``rounds`` committed writers round-robin over ``n_keys`` chains with a
    periodic sweep; with ``pinned`` a read-only transaction registers at
    round ``pin_at`` and never leaves — the HTAP long scan.  Reports the
    peak and final *post-sweep* footprints plus the sweep-cost counters,
    so ranged-vs-legacy and pinned-vs-unpinned separate cleanly.
    """
    from repro.core.transaction import Transaction, TxnClass
    from repro.core.version_control import VersionControl
    from repro.storage.gc import GarbageCollector
    from repro.storage.mvstore import MVStore

    store = MVStore()
    vc = VersionControl()
    gc = GarbageCollector(store, vc, bounded=bounded)
    peak = 0
    for round_no in range(1, rounds + 1):
        txn = Transaction()
        vc.vc_register(txn)
        store.install(f"k{round_no % n_keys}", txn.tn, round_no)
        vc.vc_complete(txn)
        if pinned and round_no == pin_at:
            scan = Transaction(TxnClass.READ_ONLY)
            scan.sn = vc.vc_start()
            gc.registry.register(scan)
        if round_no % sweep_every == 0:
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
        "scan_per_reclaimed": (
            round(gc.scan_cost_per_reclaimed(), 6) if bounded else None
        ),
    }


def bench_gc(seed: int) -> dict[str, Any]:
    """Bounded-GC ablation → the artifact's ``gc`` block.

    Four deterministic configurations: {ranged, legacy} x {pinned long
    scan, no pin}.  The headline is ``pinned_ratio`` — peak footprint of
    the legacy horizon collector over the range-tracked one under a pinned
    scan; legacy grows with run length while ranged stays flat, which is
    the whole point of the bounded collector.  Top-level like ``qos`` so
    the regression comparator ignores it and older baselines stay
    comparable; the ``--slo`` CI gate checks its ``ok``.
    """
    del seed  # fully deterministic: no randomness needed
    ranged_pin = _gc_scenario(bounded=True, pinned=True)
    ranged_nopin = _gc_scenario(bounded=True, pinned=False)
    legacy_pin = _gc_scenario(bounded=False, pinned=True)
    legacy_nopin = _gc_scenario(bounded=False, pinned=False)
    ratio = (
        legacy_pin["peak_live"] / ranged_pin["peak_live"]
        if ranged_pin["peak_live"]
        else 0.0
    )
    violations: list[str] = []
    # The bound: one pin retains at most one extra version per chain, so a
    # pinned ranged run may exceed the unpinned one by n_keys, not by O(rounds).
    if ranged_pin["peak_live"] > ranged_nopin["peak_live"] + 8:
        violations.append(
            f"ranged peak grew with the pin: {ranged_pin['peak_live']} vs "
            f"{ranged_nopin['peak_live']} + 8 chains"
        )
    if legacy_pin["peak_live"] <= ranged_pin["peak_live"]:
        violations.append(
            "legacy collector not worse under a pin: ablation inverted"
        )
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


def run_suite(
    suite: Suite, seed: int = 0, protocols: tuple[str, ...] | None = None
) -> dict[str, Any]:
    """Run ``suite`` and return the artifact dict (not yet written)."""
    from repro.replica.bench import run_replica_scaling, run_replica_sync
    from repro.shard.bench import run_shard_scaling

    selected = protocols if protocols else suite.protocols
    artifact: dict[str, Any] = {
        "schema": SCHEMA,
        "suite": suite.name,
        "seed": seed,
        "workload": suite.mix,
        "duration": suite.duration,
        "n_clients": suite.n_clients,
        "rev": git_rev(),
        "protocols": {},
    }
    protocol_slo: dict[str, Any] = {}
    protocol_witness: dict[str, Any] = {}
    for protocol in selected:
        entry = bench_protocol(protocol, suite, seed)
        # The per-protocol verdicts lift into *top-level* slo/witness blocks
        # so protocol entries keep the exact shape older baselines have and
        # the regression comparator stays oblivious.
        protocol_slo[protocol] = entry.pop("slo")
        protocol_witness[protocol] = entry.pop("witness")
        artifact["protocols"][protocol] = entry
    # Topology blocks are *top-level*, like ``qos``: the protocol comparator
    # ignores them (older baselines stay comparable) and ``--slo`` gates each
    # block's ``ok``.  ``replica``: RO throughput scales with replica count,
    # RW stays flat.  ``replica_sync``: quorum acks (RPO=0) pay the shipping
    # round trip in commit latency, not throughput.  ``shard``: RW throughput
    # scales with shard count (1.7x/3x floors); vector RO never blocks.
    artifact["qos"] = bench_qos(seed)
    artifact["replica"] = run_replica_scaling(seed, duration=150.0)
    artifact["replica_sync"] = run_replica_sync(seed, duration=150.0)
    artifact["shard"] = run_shard_scaling(seed, duration=160.0)
    artifact["gc"] = bench_gc(seed)
    qos_slo = artifact["qos"].get("slo")
    artifact["slo"] = {
        "ok": all(block["ok"] for block in protocol_slo.values())
        and (qos_slo is None or qos_slo["ok"]),
        "protocols": protocol_slo,
        "qos": qos_slo,
    }
    # The witness gate: every protocol that *promises* 1SR must certify
    # clean (no cycle, no sealed-frontier taint).  dmv2pl's torn reads are
    # the paper's expected anomaly — recorded, never a gate failure.
    artifact["witness"] = {
        "ok": all(
            block["ok"] for block in protocol_witness.values()
            if block["expected_1sr"]
        ),
        "protocols": protocol_witness,
    }
    return artifact


def git_rev() -> str:
    """Short commit id for the artifact filename; ``dev`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "dev"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "dev"


def write_artifact(artifact: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(artifact, stream, indent=2, sort_keys=True)
        stream.write("\n")


def load_artifact(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as stream:
        artifact = json.load(stream)
    if not isinstance(artifact, dict) or "protocols" not in artifact:
        raise ValueError(f"{path}: not a bench artifact (no 'protocols' key)")
    return artifact


# -- the regression comparator -----------------------------------------------------


def compare(
    baseline: dict[str, Any],
    candidate: dict[str, Any],
    throughput_tolerance: float = THROUGHPUT_TOLERANCE,
    p99_tolerance: float = P99_TOLERANCE,
) -> list[str]:
    """Regressions of ``candidate`` against ``baseline``, as messages.

    Flags: per-protocol throughput below ``1 - throughput_tolerance`` of
    baseline, and per-class p99 latency above ``1 + p99_tolerance`` of
    baseline.  Protocols present only in the candidate are informational
    additions, not failures; protocols *missing* from the candidate fail.
    An empty return means the gate passes.
    """
    regressions: list[str] = []
    for protocol, base in sorted(baseline.get("protocols", {}).items()):
        cand = candidate.get("protocols", {}).get(protocol)
        if cand is None:
            regressions.append(f"{protocol}: missing from candidate artifact")
            continue
        base_tp = base.get("throughput", 0.0)
        cand_tp = cand.get("throughput", 0.0)
        floor = base_tp * (1.0 - throughput_tolerance)
        if base_tp > 0 and cand_tp < floor:
            regressions.append(
                f"{protocol}: throughput {cand_tp:g} below "
                f"{floor:g} ({base_tp:g} - {throughput_tolerance:.0%})"
            )
        for cls in ("ro", "rw"):
            base_p99 = base.get("latency", {}).get(cls, {}).get("p99", 0.0)
            cand_p99 = cand.get("latency", {}).get(cls, {}).get("p99", 0.0)
            ceiling = base_p99 * (1.0 + p99_tolerance)
            if base_p99 > 0 and cand_p99 > ceiling:
                regressions.append(
                    f"{protocol}: {cls} p99 {cand_p99:g} above "
                    f"{ceiling:g} ({base_p99:g} + {p99_tolerance:.0%})"
                )
    return regressions


def render_artifact(artifact: dict[str, Any]) -> str:
    """One-line-per-protocol table of the headline numbers."""
    lines = [
        f"suite={artifact.get('suite')} seed={artifact.get('seed')} "
        f"workload={artifact.get('workload')} duration={artifact.get('duration')}"
    ]
    protocols = artifact.get("protocols", {})
    if not protocols:
        return lines[0] + "\n(no protocols)"
    width = max(len(name) for name in protocols)
    header = (
        f"{'protocol':<{width}}  {'thruput':>8}  {'commits':>7}  "
        f"{'rw p99':>8}  {'ro p99':>8}  {'abrt rw':>7}  phases"
    )
    lines.append(header)
    for name, entry in protocols.items():
        shares = entry.get("critical_path", {})
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
        phase_text = " ".join(f"{p}={s:.0%}" for p, s in top)
        lines.append(
            f"{name:<{width}}  {entry.get('throughput', 0.0):>8.4f}  "
            f"{entry.get('commits', 0):>7}  "
            f"{entry.get('latency', {}).get('rw', {}).get('p99', 0.0):>8.3f}  "
            f"{entry.get('latency', {}).get('ro', {}).get('p99', 0.0):>8.3f}  "
            f"{entry.get('abort_rate_rw', 0.0):>7.2%}  {phase_text}"
        )
    qos = artifact.get("qos")
    if qos:
        verdict = "ok" if qos.get("ok") else "FAIL"
        lines.append(
            f"qos [{verdict}]: shed={qos.get('shed_rate', 0.0):.2%} "
            f"deadline_miss={qos.get('deadline_miss_rate', 0.0):.2%} "
            f"ro_p99 {qos.get('ro_p99_baseline', 0.0):.3f} -> "
            f"{qos.get('ro_p99_under_overload', 0.0):.3f} under overload "
            f"({qos.get('ro_p99_ratio', 0.0):.2f}x)"
        )
    slo = artifact.get("slo")
    if slo:
        verdict = "ok" if slo.get("ok") else "BREACH"
        breached = [
            f"{proto}:{breach.get('objective')}"
            for proto, block in sorted(slo.get("protocols", {}).items())
            for breach in block.get("breaches", [])
            if not breach.get("expected")
        ]
        detail = f" unexpected: {', '.join(breached)}" if breached else ""
        lines.append(
            f"slo [{verdict}]: {len(slo.get('protocols', {}))} protocols "
            f"watched, qos="
            + (
                "ok" if (slo.get("qos") or {}).get("ok") else
                ("BREACH" if slo.get("qos") else "-")
            )
            + detail
        )
    witness = artifact.get("witness")
    if witness:
        verdict = "ok" if witness.get("ok") else "FAIL"
        blocks = witness.get("protocols", {})
        anomalous = sorted(
            name for name, block in blocks.items()
            if not block.get("serializable", True)
        )
        peak = max(
            (block.get("peak_tracked", 0) for block in blocks.values()),
            default=0,
        )
        lines.append(
            f"witness [{verdict}]: {len(blocks)} protocols certified, "
            f"peak tracked {peak}"
            + (
                f", expected anomalies: {', '.join(anomalous)}"
                if anomalous else ""
            )
        )
    replica = artifact.get("replica")
    if replica:
        verdict = "ok" if replica.get("ok") else "FAIL"
        counts = sorted(replica.get("scaling", {}), key=int)
        span = f"{counts[0]}->{counts[-1]}" if counts else "?"
        lines.append(
            f"replica [{verdict}]: ro_speedup={replica.get('ro_speedup', 0.0):.2f}x "
            f"({span} replicas) rw_ratio={replica.get('rw_ratio', 0.0):.2f}x"
        )
    shard = artifact.get("shard")
    if shard:
        verdict = "ok" if shard.get("ok") else "FAIL"
        speedups = shard.get("speedups", {})
        ramp = " ".join(
            f"{speedups[n]:.2f}x@{n}" for n in sorted(speedups, key=int)
        )
        lines.append(f"shard [{verdict}]: rw_speedup {ramp}")
    gc_block = artifact.get("gc")
    if gc_block:
        verdict = "ok" if gc_block.get("ok") else "FAIL"
        ranged = gc_block.get("ranged_pinned", {})
        legacy = gc_block.get("legacy_pinned", {})
        lines.append(
            f"gc [{verdict}]: pinned peak ranged={ranged.get('peak_live', 0)} "
            f"vs legacy={legacy.get('peak_live', 0)} "
            f"({gc_block.get('pinned_ratio', 0.0):.1f}x), "
            f"interior={ranged.get('interior', 0)}, "
            f"scan/reclaim={ranged.get('scan_per_reclaimed')}"
        )
    return "\n".join(lines)


# -- CLI ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    """``python -m repro bench [options]``.

    Options:
      --suite NAME     suite to run: quick | full (default quick)
      --quick          alias for --suite quick
      --protocols A,B  restrict the suite to a comma-separated subset
      --seed N         workload seed (default 0)
      --out PATH       artifact path (default BENCH_<rev>.json)
      --baseline PATH  compare the fresh artifact against PATH; exit 1 on
                       regression beyond tolerance
      --compare A B    compare two existing artifacts (no run) and exit
      --slo            exit 1 if the run's SLO watchdogs report an
                       unexpected breach (the artifact's top-level slo block),
                       the GC ablation fails, the replica-sync or shard
                       scaling blocks miss their floors, or the
                       serializability witness refuses to certify a protocol
                       that promises 1SR
      --list           list suites and exit
    """
    args = list(argv)
    suite_name = "quick"
    seed = 0
    out: str | None = None
    baseline_path: str | None = None
    compare_paths: tuple[str, str] | None = None
    protocols: tuple[str, ...] | None = None
    slo_gate = False
    index = 0

    def take_value(flag: str) -> str | None:
        nonlocal index
        index += 1
        if index >= len(args):
            print(f"{flag} needs a value")
            return None
        return args[index]

    while index < len(args):
        arg = args[index]
        if arg in ("-h", "--help"):
            print(main.__doc__)
            return 0
        if arg == "--list":
            for suite in SUITES.values():
                print(f"{suite.name}: {', '.join(suite.protocols)}")
                print(f"  {suite.description}")
            return 0
        if arg == "--quick":
            suite_name = "quick"
        elif arg == "--suite":
            value = take_value(arg)
            if value is None:
                return 2
            suite_name = value
        elif arg == "--protocols":
            value = take_value(arg)
            if value is None:
                return 2
            protocols = tuple(p.strip() for p in value.split(",") if p.strip())
        elif arg == "--seed":
            value = take_value(arg)
            if value is None:
                return 2
            try:
                seed = int(value)
            except ValueError:
                print(f"--seed needs an integer, got {value!r}")
                return 2
        elif arg == "--out":
            value = take_value(arg)
            if value is None:
                return 2
            out = value
        elif arg == "--baseline":
            value = take_value(arg)
            if value is None:
                return 2
            baseline_path = value
        elif arg == "--compare":
            first = take_value(arg)
            second = take_value(arg) if first is not None else None
            if first is None or second is None:
                print("--compare needs two artifact paths")
                return 2
            compare_paths = (first, second)
        elif arg == "--slo":
            slo_gate = True
        else:
            print(f"unknown option {arg!r}")
            return 2
        index += 1

    if compare_paths is not None:
        try:
            base = load_artifact(compare_paths[0])
            cand = load_artifact(compare_paths[1])
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot load artifact: {exc}")
            return 1
        regressions = compare(base, cand)
        if regressions:
            print("REGRESSIONS:")
            for message in regressions:
                print(f"  {message}")
            return 1
        print("no regressions beyond tolerance")
        return 0

    suite = SUITES.get(suite_name)
    if suite is None:
        print(f"unknown suite {suite_name!r}; available: {', '.join(SUITES)}")
        return 2
    unknown = [p for p in (protocols or ()) if p not in suite.protocols]
    if unknown:
        print(
            f"protocols not in suite {suite.name!r}: {', '.join(unknown)} "
            f"(suite has: {', '.join(suite.protocols)})"
        )
        return 2

    artifact = run_suite(suite, seed, protocols)
    path = out if out is not None else f"BENCH_{artifact['rev']}.json"
    write_artifact(artifact, path)
    print(render_artifact(artifact))
    print(f"\nartifact written to {path}")

    if baseline_path is not None:
        try:
            base = load_artifact(baseline_path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot load baseline: {exc}")
            return 1
        regressions = compare(base, artifact)
        if regressions:
            print("\nREGRESSIONS against", baseline_path)
            for message in regressions:
                print(f"  {message}")
            return 1
        print(f"\nno regressions against {baseline_path}")

    if slo_gate and not artifact.get("slo", {}).get("ok", True):
        print("\nSLO BREACH: the run's watchdogs reported an unexpected breach")
        return 1
    if slo_gate and not artifact.get("gc", {}).get("ok", True):
        print("\nGC REGRESSION: the bounded-GC ablation block failed")
        for message in artifact.get("gc", {}).get("violations", []):
            print(f"  {message}")
        return 1
    if slo_gate and not artifact.get("replica_sync", {}).get("ok", True):
        print("\nREPLICA SYNC REGRESSION: the async-vs-quorum block failed")
        for message in artifact.get("replica_sync", {}).get("violations", []):
            print(f"  {message}")
        return 1
    if slo_gate and not artifact.get("shard", {}).get("ok", True):
        print("\nSHARD REGRESSION: the multi-primary scaling block failed")
        for message in artifact.get("shard", {}).get("violations", []):
            print(f"  {message}")
        return 1
    if slo_gate and not artifact.get("witness", {}).get("ok", True):
        print("\nWITNESS FAILURE: a protocol promising 1SR did not certify")
        for name, block in sorted(
            artifact.get("witness", {}).get("protocols", {}).items()
        ):
            if block.get("expected_1sr") and not block.get("ok"):
                print(
                    f"  {name}: {block.get('violation_count', 0)} cycle(s), "
                    f"{block.get('late_sealed_reads', 0)} late sealed read(s)"
                )
        return 1
    return 0
