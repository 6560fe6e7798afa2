"""Versioned benchmark artifacts and the regression comparator.

``python -m repro bench`` runs a named suite of closed-loop benchmarks under
seeded determinism and writes a ``BENCH_<rev>.json`` artifact: per protocol,
throughput, latency percentiles (p50/p95/p99 by transaction class), abort
rates, visibility lag, and critical-path phase shares derived from the span
trees of the traced run.  Because every number is measured in *virtual*
time, the artifact is a pure function of (code, suite, seed): the same
commit produces byte-identical metrics on any machine, which is what makes
``compare`` usable as a CI gate — a regression is a code change, not noise.

The comparator (:func:`compare`, ``--baseline`` / ``--compare``) diffs two
artifacts and fails on a throughput drop or a p99 latency increase beyond
tolerance (defaults: 10% / 15% — see ``docs/benchmarks.md``).

The committed ``BENCH_baseline.json`` at the repo root is the reference
point; refresh it deliberately (and explain why in the commit) whenever an
intended change moves the numbers.
"""

from __future__ import annotations

import json
import pkgutil
import subprocess
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.bench.runner import SimConfig, run_simulation
from repro.cli import Parser
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
        description="CI gate: core VC protocols, two baselines, both "
        "distributed databases",
    ),
    "full": Suite(
        name="full",
        protocols=(
            "vc-2pl", "vc-to", "vc-occ", "mvto-reed", "mv2pl-chan", "weihl-ti",
            "sv-2pl", "sv-to", "dvc-2pl", "dmv2pl",
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


def bench_protocol(protocol: str, suite: Suite, seed: int) -> dict[str, Any]:
    """One traced benchmark run → one artifact entry for ``protocol``, still
    carrying its ``slo`` and ``witness`` verdicts (:func:`run_suite` lifts them)."""
    from repro.obs.witness import WitnessEngine

    sim = Simulator()
    scheduler = _make_scheduler(protocol, sim)
    # The certifier attaches *live* (the ring truncates long runs), so its
    # verdict covers every event, not just the retained suffix.
    certifier = WitnessEngine(seal=True)
    pipeline = ObsPipeline(sim=sim, ring=262_144, witness=certifier)
    workload = MIXES[suite.mix](seed=seed)
    config = SimConfig(
        duration=suite.duration,
        n_clients=suite.n_clients,
        # The bench measures performance; correctness has its own tests (and
        # dmv2pl's read-only anomaly would trip the global oracle by design).
        check_serializability=False,
    )
    wall_start = time.perf_counter()
    metrics = run_simulation(
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
        key: witness_report[key]
        for key in (
            "ok", "serializable", "violation_count", "late_sealed_reads",
            "peak_tracked", "sealed",
        )
    }
    witness["expected_1sr"] = protocol not in EXPECTED_ANOMALOUS

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
        "critical_path": {phase: round(share, 6) for phase, share in shares.items()},
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
    from repro.obs.tracer import replay

    ro_never_blocks = protocol.startswith(RO_NEVER_BLOCKS_PREFIXES)
    engine = SLOEngine(
        bench_objectives(ro_never_blocks=ro_never_blocks),
        window=suite.duration / 16.0,
    )
    replay(events, engine)
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


# -- the blocks --------------------------------------------------------------------


def scenario(target: str, **overrides: Any) -> Callable[..., dict[str, Any]]:
    """Build a block by running the seeded scenario ``"module:function"`` —
    it lives with the subsystem it measures and is imported only when it
    runs — with the suite's defaults overridden by the block's own."""

    def build(artifact: dict[str, Any], defaults: dict[str, Any]) -> dict[str, Any]:
        return pkgutil.resolve_name(target)(**{**defaults, **overrides})

    return build


def _slo_verdicts(artifact: dict[str, Any], defaults: dict[str, Any]) -> dict[str, Any]:
    protocols = {name: entry["slo"] for name, entry in artifact["protocols"].items()}
    qos = artifact["qos"]["slo"]
    return {
        "ok": qos["ok"] and all(block["ok"] for block in protocols.values()),
        "protocols": protocols,
        "qos": qos,
    }


def _witness_verdicts(
    artifact: dict[str, Any], defaults: dict[str, Any]
) -> dict[str, Any]:
    protocols = {
        name: entry["witness"] for name, entry in artifact["protocols"].items()
    }
    return {
        "ok": all(
            block["ok"] for block in protocols.values() if block["expected_1sr"]
        ),
        "protocols": protocols,
    }


def _unexpected_breaches(slo: dict[str, Any]) -> list[str]:
    return [
        f"{protocol}:{breach['objective']}"
        for protocol, block in sorted(slo["protocols"].items())
        for breach in block["breaches"]
        if not breach.get("expected")
    ]


def _uncertified(witness: dict[str, Any]) -> list[str]:
    return [
        f"{name}: {block['violation_count']} cycle(s), "
        f"{block['late_sealed_reads']} late sealed read(s)"
        for name, block in sorted(witness["protocols"].items())
        if block["expected_1sr"] and not block["ok"]
    ]


def _slo_line(slo: dict[str, Any]) -> str:
    breached = _unexpected_breaches(slo)
    return (
        f"{len(slo['protocols'])} protocols watched, "
        f"qos={'ok' if slo['qos']['ok'] else 'BREACH'}"
        + (f" unexpected: {', '.join(breached)}" if breached else "")
    )


def _witness_line(witness: dict[str, Any]) -> str:
    blocks = witness["protocols"]
    anomalous = sorted(
        name for name, block in blocks.items() if not block["serializable"]
    )
    peak = max((block["peak_tracked"] for block in blocks.values()), default=0)
    return (
        f"{len(blocks)} protocols certified, peak tracked {peak}"
        + (f", expected anomalies: {', '.join(anomalous)}" if anomalous else "")
    )


def _ramp(points: dict[str, float]) -> str:
    return " ".join(f"{points[n]:.2f}x@{n}" for n in sorted(points, key=int))


@dataclass(frozen=True)
class Block:
    """One top-level block of the artifact beside ``protocols``.

    Every block reports ``ok`` against its own acceptance floors.  The
    regression comparator reads ``protocols`` only, so a block can be added
    and older baselines stay comparable.
    """

    #: ``build(artifact so far, suite defaults)`` -> the block.
    build: Callable[[dict[str, Any], dict[str, Any]], dict[str, Any]]
    #: block -> its line of the printed table after ``name [verdict]: ``
    #: (None: the block prints no line).
    line: Callable[[dict[str, Any]], str] | None = None
    #: block -> what ``--slo`` prints under the block's name when ``ok`` is false.
    violations: Callable[[dict[str, Any]], list[str]] = (
        lambda block: block["violations"]
    )
    #: How the printed line spells ``ok`` false.
    failed: str = "FAIL"


#: Every block, in build and print order (``slo`` reads ``qos``).  A new
#: block is one more row: :func:`run_suite`, :func:`render_artifact` and the
#: ``--slo`` gate (:func:`failed_blocks`) iterate this table, and
#: ``docs/benchmarks.md`` says what each one's ``ok`` promises.
BLOCKS: dict[str, Block] = {
    "qos": Block(
        scenario("repro.qos.overload:bench_block", duration=200.0),
        "shed={shed_rate:.2%} deadline_miss={deadline_miss_rate:.2%} "
        "ro_p99 {ro_p99_baseline:.3f} -> {ro_p99_under_overload:.3f} under "
        "overload ({ro_p99_ratio:.2f}x)".format_map,
    ),
    "slo": Block(
        _slo_verdicts, _slo_line, violations=_unexpected_breaches, failed="BREACH"
    ),
    "witness": Block(_witness_verdicts, _witness_line, violations=_uncertified),
    "replica": Block(
        scenario("repro.replica.bench:run_replica_scaling", duration=150.0),
        lambda replica: (
            f"ro_speedup={replica['ro_speedup']:.2f}x "
            f"({min(replica['scaling'], key=int)}->"
            f"{max(replica['scaling'], key=int)} replicas) "
            f"rw_ratio={replica['rw_ratio']:.2f}x"
        ),
    ),
    "replica_sync": Block(
        scenario("repro.replica.bench:run_replica_sync", duration=150.0)
    ),
    "shard": Block(
        scenario("repro.shard.bench:run_shard_scaling", duration=160.0),
        lambda shard: f"rw_speedup {_ramp(shard['speedups'])}",
    ),
    "gc": Block(
        scenario("repro.bench.ablations:bounded_gc_block"),
        "pinned peak ranged={ranged_pinned[peak_live]} vs "
        "legacy={legacy_pinned[peak_live]} ({pinned_ratio:.1f}x), "
        "interior={ranged_pinned[interior]}, "
        "scan/reclaim={ranged_pinned[scan_per_reclaimed]}".format_map,
    ),
}


def run_suite(
    suite: Suite, seed: int = 0, protocols: tuple[str, ...] | None = None
) -> dict[str, Any]:
    """Run ``suite`` and return the artifact dict (not yet written)."""
    artifact: dict[str, Any] = {
        "schema": SCHEMA,
        "suite": suite.name,
        "seed": seed,
        "workload": suite.mix,
        "duration": suite.duration,
        "n_clients": suite.n_clients,
        "rev": git_rev(),
        "protocols": {
            protocol: bench_protocol(protocol, suite, seed)
            for protocol in protocols or suite.protocols
        },
    }
    for name, block in BLOCKS.items():
        artifact[name] = block.build(artifact, {"seed": seed})
    # The per-protocol verdicts now live in their top-level blocks; protocol
    # entries keep the exact shape older baselines have.
    for entry in artifact["protocols"].values():
        for name in BLOCKS:
            entry.pop(name, None)
    return artifact


def failed_blocks(artifact: dict[str, Any]) -> dict[str, list[str]]:
    """The ``--slo`` gate: every block reporting ``ok`` false -> its violations."""
    return {
        name: block.violations(artifact[name])
        for name, block in BLOCKS.items()
        if name in artifact and not artifact[name]["ok"]
    }


def git_rev() -> str:
    """Short commit id for the artifact filename; ``dev`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
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
    """One line per protocol of the headline numbers, then one per block."""
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
        top = sorted(entry["critical_path"].items(), key=lambda kv: -kv[1])[:3]
        phase_text = " ".join(f"{p}={s:.0%}" for p, s in top)
        latency = entry["latency"]
        lines.append(
            f"{name:<{width}}  {entry['throughput']:>8.4f}  {entry['commits']:>7}  "
            f"{latency['rw']['p99']:>8.3f}  {latency['ro']['p99']:>8.3f}  "
            f"{entry['abort_rate_rw']:>7.2%}  {phase_text}"
        )
    for name, block in BLOCKS.items():
        if block.line is not None and name in artifact:
            verdict = "ok" if artifact[name]["ok"] else block.failed
            lines.append(f"{name} [{verdict}]: {block.line(artifact[name])}")
    return "\n".join(lines)


# -- CLI ---------------------------------------------------------------------------


def _protocol_list(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


#: Every ``bench`` flag, in ``--help`` order: dest -> ``add_argument`` keywords.
FLAGS: dict[str, dict[str, Any]] = {
    "suite": dict(
        choices=tuple(SUITES), default="quick", help="suite to run (default quick)"
    ),
    "quick": dict(
        action="store_const", dest="suite", const="quick", help="--suite quick"
    ),
    "protocols": dict(
        metavar="A,B", type=_protocol_list,
        help="restrict the suite to a comma-separated subset",
    ),
    "seed": dict(metavar="N", type=int, default=0, help="workload seed (default 0)"),
    "out": dict(metavar="PATH", help="artifact path (default BENCH_<rev>.json)"),
    "baseline": dict(
        metavar="PATH", help="exit 1 if the fresh artifact regresses against PATH"
    ),
    "compare": dict(
        nargs=2, metavar=("A", "B"), help="compare two artifacts (no run) and exit"
    ),
    "slo": dict(
        action="store_true",
        help="exit 1 if any block of the artifact reports ok false: "
        + ", ".join(BLOCKS),
    ),
    "list": dict(action="store_true", help="list suites and exit"),
}


def _gate(baseline_path: str, candidate: dict[str, Any] | str, against: str) -> int:
    """Print :func:`compare`'s verdict on ``candidate`` (an artifact or the
    path of one) ``against`` the baseline; the exit status."""
    try:
        baseline = load_artifact(baseline_path)
        if isinstance(candidate, str):
            candidate = load_artifact(candidate)
    except (OSError, ValueError) as exc:
        print(f"cannot load artifact: {exc}")
        return 1
    regressions = compare(baseline, candidate)
    if not regressions:
        print(f"no regressions {against}")
        return 0
    print(f"REGRESSIONS {against}:")
    for message in regressions:
        print(f"  {message}")
    return 1


def main(argv: list[str]) -> int:
    """``python -m repro bench [options]``: 0 clean, 1 regression or failed
    block (or unreadable artifact), 2 usage error."""
    parser = Parser(
        FLAGS,
        prog="repro bench",
        description="Run a seeded benchmark suite, write its artifact, and "
        "gate it against a baseline (see docs/benchmarks.md).",
    )
    args = parser.parse(argv)
    if isinstance(args, int):
        return args
    if args.list:
        for suite in SUITES.values():
            print(f"{suite.name}: {', '.join(suite.protocols)}")
            print(f"  {suite.description}")
        return 0
    if args.compare is not None:
        return _gate(*args.compare, "beyond tolerance")

    suite = SUITES[args.suite]
    unknown = [p for p in (args.protocols or ()) if p not in suite.protocols]
    if unknown:
        print(
            f"protocols not in suite {suite.name!r}: {', '.join(unknown)} "
            f"(suite has: {', '.join(suite.protocols)})"
        )
        return 2

    artifact = run_suite(suite, args.seed, args.protocols)
    path = args.out if args.out is not None else f"BENCH_{artifact['rev']}.json"
    write_artifact(artifact, path)
    print(render_artifact(artifact))
    print(f"\nartifact written to {path}")

    if args.baseline is not None:
        print()
        if _gate(args.baseline, artifact, f"against {args.baseline}"):
            return 1
    failed = failed_blocks(artifact) if args.slo else {}
    for name, violations in failed.items():
        print(f"\n{name.upper()} FAILED: the artifact's {name} block reports ok false")
        for message in violations:
            print(f"  {message}")
    return 1 if failed else 0
