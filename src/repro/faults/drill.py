"""Seeded fault-injection drills over the distributed protocols.

A *drill* runs a randomized multi-client workload against one distributed
database (``dvc`` — the paper's distributed VC + 2PL — or ``dmv2pl``, the
ref [8] baseline) on the virtual clock, with a
:class:`~repro.faults.courier.FaultyCourier` corrupting the network per a
seeded :class:`~repro.faults.schedule.FaultSchedule` and a crasher process
fail-stopping random sites (WAL-replay restart).  A
:class:`~repro.faults.invariants.FaultInvariantChecker` asserts the paper's
invariants throughout; the :class:`DrillReport` carries the verdict plus
fault/commit tallies.  Everything — client think times, key choices, fault
draws, crash times — derives from the master seed, so any failing drill
replays bit-for-bit from ``(protocol, seed, knobs)``.

``python -m repro drill`` runs campaigns of these — and, through the
:data:`CAMPAIGNS` table, of the five other seeded drills (see :func:`main`);
``run_campaign`` is the library entry point.

DMV2PL drills run read-write clients only: its read-only anomaly (torn
global reads) is the paper result the protocol exists to demonstrate, not
a fault-handling bug, so drills assert serializability of the read-write
subhistory plus durability — the properties crashes and message faults
could actually break.
"""

from __future__ import annotations

import argparse
import pkgutil
import sys

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.distributed.database import DistributedVCDatabase
from repro.distributed.dmv2pl import DistributedMV2PL
from repro.errors import ProtocolError, TransactionAborted
from repro.faults.campaign import (
    CampaignReport,
    DoubleRun,
    PhaseRun,
    closed_loop,
    increment,
    slo_engine,
)
from repro.faults.courier import RetryPolicy
from repro.faults.invariants import FaultInvariantChecker
from repro.faults.schedule import DEFAULT_SPEC, FaultSpec
from repro.obs.tracer import NULL_TRACER, Tracer

PROTOCOLS = ("dvc", "dmv2pl")


@dataclass
class DrillReport(CampaignReport):
    """Outcome of one seeded drill."""

    PHASE = None  # the drill's tallies live on the report itself

    protocol: str
    commits: int = 0
    aborts: int = 0
    ro_commits: int = 0
    crashes: int = 0
    messages: int = 0
    faults: dict[str, int] = field(default_factory=dict)
    wedged: list[str] = field(default_factory=list)


def run_drill(
    protocol: str = "dvc",
    seed: int = 0,
    *,
    duration: float = 300.0,
    n_sites: int = 3,
    writers: int = 4,
    readers: int = 2,
    spec: FaultSpec | None = None,
    retry: RetryPolicy | None = None,
    crash_mean: float | None = 90.0,
    tracer: Tracer = NULL_TRACER,
    slo: bool = False,
    witness: bool = False,
) -> DrillReport:
    """Run one seeded fault drill; returns its :class:`DrillReport`.

    ``crash_mean`` is the mean virtual time between site crash-restarts
    (``None`` disables crashes).  Crashes stop at ``0.8 * duration`` so the
    run always has a quiet tail in which in-flight work settles before the
    final invariant sweep.

    With ``slo`` an :class:`~repro.obs.slo.SLOEngine` with the ``faults``
    profile rides the drill (sharing ``tracer`` when one is given,
    otherwise on its own private tracer); its verdict lands in
    ``report.slo`` and an unexpected breach becomes a violation.

    With ``witness`` a sealing :class:`~repro.obs.witness.WitnessEngine`
    certifies the drill's ``history.*`` stream online; its verdict lands in
    ``report.witness`` and any MVSG cycle (or a tainted seal) becomes a
    violation — the live counterpart of the oracle's post-mortem check.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; pick from {PROTOCOLS}")
    spec = spec if spec is not None else DEFAULT_SPEC
    run = PhaseRun(seed)
    sim = run.sim
    courier = run.courier(1.0, spec=spec, retry=retry)
    schedule = courier.schedule
    if protocol == "dvc":
        db: Any = DistributedVCDatabase(
            n_sites=n_sites, courier=courier, prepare_timeout=80.0
        )
    else:
        db = DistributedMV2PL(n_sites=n_sites, courier=courier)
        readers = 0  # RO anomaly is the paper result, not a fault bug
    from repro.obs.instrument import attach_tracer

    # The observers ride the *caller's* tracer rather than a per-drill
    # ObsPipeline: a campaign shares one tracer (and one trace file) across
    # its drills, and span/trace ids are allocated by the tracer.
    engine = certifier = None
    if slo:
        from repro.obs.slo import faults_objectives

        engine = slo_engine(faults_objectives(), duration, capacity=8192)
    if witness:
        from repro.obs.witness import WitnessEngine

        certifier = WitnessEngine(seal=True)
    observers = [observer for observer in (engine, certifier) if observer is not None]
    if observers and not tracer.enabled:
        # NULL_TRACER is shared and immutable: give the observers their own
        # private tracer instead.
        tracer = Tracer()
    for observer in observers:
        tracer.add_exporter(observer)
    if tracer.enabled:
        tracer.clock = lambda: sim.now  # fault timelines in virtual time
    instrumentation = attach_tracer(db, tracer)
    checker = FaultInvariantChecker(db)
    rng = run.streams.stream("clients")
    keys = [f"s{s}:k{i}" for s in range(1, n_sites + 1) for i in range(4)]
    report = DrillReport(protocol=protocol, seed=seed, duration=duration)

    def write_once():
        txn = db.begin()
        try:
            yield from increment(db, txn, rng.sample(keys, 2))
            yield db.commit(txn)
            checker.note_commit(txn)
            report.commits += 1
        except (TransactionAborted, ProtocolError):
            # TransactionAborted: deadlock victim, site failure, or 2PC
            # timeout surfaced through a pending future.  ProtocolError:
            # the transaction was fault-aborted while the client slept
            # between operations, so the next operation's entry guard
            # fired.  Either way: clean up and move on.
            if txn.is_active:
                db.abort(txn)
            report.aborts += 1

    def read_once():
        txn = db.begin(read_only=True, origin_site=rng.randint(1, n_sites))
        for key in rng.sample(keys, 3):
            yield db.read(txn, key)
        yield db.commit(txn)
        report.ro_commits += 1

    def crasher():
        assert crash_mean is not None
        while True:
            yield rng.expovariate(1.0 / crash_mean)
            # Leave a quiet tail: no crashes in the last fifth of the run,
            # so decided commits settle before the final sweep.
            if sim.now >= 0.8 * duration:
                return
            sid = rng.randint(1, n_sites)
            db.crash_restart_site(sid)
            schedule.counts.crashes += 1
            report.crashes += 1
            checker.snapshot()

    def watcher():
        while sim.now < duration:
            yield duration / 20.0
            checker.snapshot()

    run.spawn(
        "writer", writers,
        lambda _i: closed_loop(sim, duration, lambda: rng.expovariate(0.3), write_once),
    )
    run.spawn(
        "reader", readers,
        lambda _i: closed_loop(sim, duration, lambda: rng.expovariate(0.4), read_once),
    )
    if crash_mean is not None:
        sim.spawn(crasher(), name="crasher")
    sim.spawn(watcher(), name="watcher")
    sim.run()

    report.wedged = run.wedged()
    checker.check_final()
    report.violations = list(checker.violations)
    report.messages = courier.delivered
    report.faults = schedule.counts.as_dict()
    for observer in observers:
        observer.finish()
    report.conclude(DoubleRun(report, engine, certifier, deterministic=True))
    for observer in observers:
        tracer.remove_exporter(observer)
    if tracer.enabled:
        tracer.emit(
            "fault.drill.done",
            protocol=protocol,
            seed=seed,
            ok=report.ok,
            commits=report.commits,
            aborts=report.aborts,
            crashes=report.crashes,
        )
    instrumentation.detach()
    return report


def run_campaign(
    protocols: tuple[str, ...] | list[str] = PROTOCOLS,
    seeds: int = 20,
    seed_base: int = 0,
    *,
    progress: Callable[[DrillReport], None] | None = None,
    **drill_kwargs: Any,
) -> list[DrillReport]:
    """Run ``seeds`` drills per protocol; returns every report."""
    reports: list[DrillReport] = []
    for protocol in protocols:
        for offset in range(seeds):
            report = run_drill(protocol, seed_base + offset, **drill_kwargs)
            reports.append(report)
            if progress is not None:
                progress(report)
    return reports


# -- the CLI: one table, one seed loop --------------------------------------------------


def _slo_tag(report: Any) -> str:
    if report.slo is None:
        return ""
    return f" slo={'ok' if report.slo['ok'] else 'BREACH'}"


def _witness_tag(report: Any) -> str:
    if report.witness is None:
        return ""
    return f" witness={'1SR' if report.witness['ok'] else 'FAIL'}"


def _fault_spec(args: argparse.Namespace, base: FaultSpec) -> FaultSpec:
    """The campaign's own fault mix, overridden by the flags that were passed."""
    return FaultSpec(
        drop=base.drop if args.drop is None else args.drop,
        duplicate=base.duplicate if args.duplicate is None else args.duplicate,
        delay_spike=base.delay_spike if args.delay_spike is None else args.delay_spike,
    )


def _spec_text(spec: FaultSpec) -> str:
    return f"spec=(drop={spec.drop}, dup={spec.duplicate}, spike={spec.delay_spike})"


@dataclass(frozen=True)
class Campaign:
    """One ``--campaign`` value: everything :func:`main` needs to run it
    (column by column in ``docs/faults.md``, "Anatomy of a table row")."""

    #: ``"module:function"`` of ``run(seed=..., **kwargs)`` — imported only
    #: when the campaign is chosen, so ``import repro`` never pays for it.
    runner: str
    #: The campaign-specific flag dests it consumes (beyond COMMON_FLAGS);
    #: passing any other campaign's flag is a usage error.
    flags: tuple[str, ...]
    #: parsed args -> the runner's keyword arguments beyond seed/duration.
    kwargs: Callable[[argparse.Namespace], dict[str, Any]]
    banner: Callable[[argparse.Namespace, dict[str, Any]], str]
    #: report -> the per-seed line, after the ``seed=N verdict`` prefix.
    row: Callable[[Any], str]
    #: The runner's ``protocol`` values to sweep the seeds over (``(None,)``:
    #: it takes no such keyword), and the summary line's
    #: ``<runs> <noun>, <totals(reports)><failed> failed``.
    variants: Callable[[argparse.Namespace], tuple] = lambda args: (None,)
    noun: str = "campaigns"
    totals: Callable[[list], str] = lambda reports: ""


def _faults_kwargs(args: argparse.Namespace) -> dict[str, Any]:
    tracer: Tracer = NULL_TRACER
    if args.trace:
        from repro.obs.exporters import JsonlExporter

        tracer = Tracer(exporters=[JsonlExporter(args.trace)])
    return dict(
        n_sites=args.sites,
        spec=_fault_spec(args, DEFAULT_SPEC),
        crash_mean=args.crash_mean or None,
        tracer=tracer,
        slo=args.slo,
        witness=args.witness,
    )


def _faults_protocols(args: argparse.Namespace) -> tuple[str, ...]:
    return PROTOCOLS if args.protocol == "both" else (args.protocol,)


def _faults_row(report: DrillReport) -> str:
    faults = report.faults
    return (
        f"commits={report.commits:<4d} aborts={report.aborts:<3d} "
        f"crashes={report.crashes:<2d} drops={faults.get('drops', 0):<3d} "
        f"dups={faults.get('duplicates', 0):<3d} "
        f"parked={faults.get('partition_deferrals', 0)}"
        + _slo_tag(report)
        + _witness_tag(report)
    )


def _overload_row(report: Any) -> str:
    return (
        f"shed={report.shed_rate:<7.2%} "
        f"miss={report.deadline_miss_rate:<7.2%} "
        f"ro_p99x={report.ro_p99_ratio:<5.2f} "
        f"rw_commits={report.overload.rw_commits:<5d} "
        f"ro_commits={report.overload.ro_commits}"
        + _witness_tag(report)
    )


def _memory_row(report: Any) -> str:
    stats = report.stats
    return (
        f"peak={stats.peak_live:<4d} (bound {report.live_bound}) "
        f"revoked={len(stats.revocations):<3d} "
        f"too_old={stats.too_old_total:<3d} "
        f"scans={stats.scan_commits:<3d} "
        f"ro={stats.ro_commits:<4d} rw={stats.rw_commits:<4d} "
        f"shed={stats.rw_shed}"
        + _slo_tag(report)
        + (
            f"{_witness_tag(report)} (peak {report.witness['peak_tracked']})"
            if report.witness is not None
            else ""
        )
    )


def _replication_kwargs(args: argparse.Namespace) -> dict[str, Any]:
    from repro.replica.campaign import REPLICATION_SPEC

    return dict(
        n_replicas=args.replicas,
        spec=_fault_spec(args, REPLICATION_SPEC),
        mode=args.mode,
        promote=not args.no_promote,
    )


def _replication_row(report: Any) -> str:
    phase = report.phase
    return (
        f"rw={phase.rw_commits:<4d} ro={phase.ro_commits:<5d} "
        f"lag_max={phase.max_lag_txns:<3d} "
        f"redirects={phase.ro_redirects:<4d} "
        f"promoted=r{phase.promoted_replica or '-'} "
        f"rpo={phase.rpo_txns if phase.rpo_txns is not None else '-'} "
        f"drops={report.faults.get('drops', 0):<3d} "
        f"parked={report.faults.get('partition_deferrals', 0)}"
        + _witness_tag(report)
    )


def _availability_row(report: Any) -> str:
    phase = report.phase
    outage = max(phase.outages) if phase.outages else 0.0
    crash_ok = sum(1 for p in report.crash_points if p.ok)
    return (
        f"rw={phase.rw_commits:<4d} post={phase.rw_commits_post:<3d} "
        f"ro={phase.ro_commits:<5d} "
        f"rpo={phase.rpo_txns if phase.rpo_txns is not None else '-'} "
        f"outage={outage:<6.2f} fenced={phase.fenced:<2d} "
        f"split={'fenced' if phase.split_brain_fenced else 'FAIL'} "
        f"crash={crash_ok}/{len(report.crash_points)}"
        + _slo_tag(report)
        + _witness_tag(report)
    )


def _shard_row(report: Any) -> str:
    phase = report.phase
    failed_outages = phase.outages_per_shard.get(report.fail_shard, ())
    outage = max(failed_outages) if failed_outages else 0.0
    return (
        f"fast={phase.fast_commits:<4d} x={phase.cross_commits:<3d} "
        f"ro={phase.ro_sessions:<4d} "
        f"audits={phase.audits_failed} "
        f"survive={phase.survivor_commits_during:<3d} "
        f"outage={outage:<6.2f} "
        f"det={'yes' if report.deterministic else 'NO'}"
        + _slo_tag(report)
        + _witness_tag(report)
    )


#: Every ``--campaign`` value.  A new drill is one more row here (plus its
#: campaign module); ``docs/api.md`` lists the flags column.
CAMPAIGNS: dict[str, Campaign] = {
    "faults": Campaign(
        runner="repro.faults.drill:run_drill",
        flags=(
            "protocol", "sites", "drop", "duplicate", "delay_spike",
            "crash_mean", "trace", "slo", "witness",
        ),
        kwargs=_faults_kwargs,
        banner=lambda args, kwargs: (
            f"fault drill: protocols={','.join(_faults_protocols(args))} "
            f"seeds={args.seeds} {_spec_text(kwargs['spec'])} "
            f"crash_mean={args.crash_mean or 'off'}"
        ),
        row=_faults_row,
        variants=_faults_protocols,
        noun="drills",
        totals=lambda reports: (
            f"{sum(r.commits for r in reports)} commits, "
            f"{sum(sum(r.faults.values()) for r in reports)} injected faults, "
        ),
    ),
    "overload": Campaign(
        runner="repro.qos.overload:run_overload_campaign",
        flags=("policy",),
        kwargs=lambda args: dict(policy=args.policy),
        banner=lambda args, kwargs: (
            f"overload campaign: seeds={args.seeds} policy={args.policy} "
            f"duration={args.duration}"
        ),
        row=_overload_row,
    ),
    "replication": Campaign(
        runner="repro.replica.campaign:run_replication_campaign",
        flags=("replicas", "no_promote", "mode", "drop", "duplicate", "delay_spike"),
        kwargs=_replication_kwargs,
        banner=lambda args, kwargs: (
            f"replication campaign: seeds={args.seeds} replicas={args.replicas} "
            f"duration={args.duration} mode={args.mode} "
            f"{_spec_text(kwargs['spec'])} promote={kwargs['promote']}"
        ),
        row=_replication_row,
    ),
    "memory": Campaign(
        runner="repro.qos.memory:run_memory_campaign",
        flags=(),
        kwargs=lambda args: {},
        banner=lambda args, kwargs: (
            f"memory campaign: seeds={args.seeds} duration={args.duration}"
        ),
        row=_memory_row,
    ),
    "availability": Campaign(
        runner="repro.replica.availability:run_availability_campaign",
        flags=("replicas",),
        kwargs=lambda args: dict(n_replicas=args.replicas),
        banner=lambda args, kwargs: (
            f"availability campaign: seeds={args.seeds} replicas={args.replicas} "
            f"duration={args.duration} mode=quorum (partition -> automatic "
            f"fail-over + crash-point sweep)"
        ),
        row=_availability_row,
    ),
    "shard": Campaign(
        runner="repro.shard.campaign:run_shard_campaign",
        flags=("sites",),
        kwargs=lambda args: dict(n_shards=args.sites),
        banner=lambda args, kwargs: (
            f"shard campaign: seeds={args.seeds} shards={args.sites} "
            f"duration={args.duration} (partition one shard -> fail-over "
            f"mid-batch; certify 1SR + vector consistency + determinism + "
            f"fail-over isolation)"
        ),
        row=_shard_row,
    ),
}

_CAMPAIGN_HELP = (
    "faults: network faults + crashes over the distributed "
    "protocols; overload: QoS overload campaign (admission shedding, "
    "deadlines, read-only fast-path guarantee) — see repro.qos.overload; "
    "replication: WAL-shipped replica tier under lossy/partitioned "
    "shipping with a primary fail-over — see repro.replica.campaign; "
    "memory: bounded-GC memory-pressure campaign (snapshot leases, "
    "oldest-first revocation, SnapshotTooOld retries) — see "
    "repro.qos.memory; availability: quorum-mode self-healing drill "
    "(partition the primary, automatic fail-over, RPO=0, split-brain "
    "fencing, crash-point sweep) — see repro.replica.availability; "
    "shard: hash-sharded multi-primary drill (partition one shard, "
    "fail it over mid-batch, certify 1SR + snapshot-vector consistency "
    "+ determinism + fail-over isolation) — see repro.shard.campaign"
)
_SWITCH = dict(action="store_const", const=True)

#: Every flag after ``--campaign``, in ``--help`` order: dest -> (default,
#: argparse keywords).  The parser itself defaults every flag to None so
#: :func:`parse_args` can tell "passed" from "left alone"; a fault
#: probability left alone stays None and the campaign's own spec fills it.
FLAGS: dict[str, tuple[Any, dict[str, Any]]] = {
    "policy": ("fifo", dict(
        choices=("fifo", "lifo-shed", "priority"),
        help="admission shedding policy (overload campaign only)",
    )),
    "protocol": ("both", dict(
        choices=(*PROTOCOLS, "both"),
        help="which distributed protocol to drill (default: both)",
    )),
    "seeds": (20, dict(type=int, help="number of seeds per protocol")),
    "seed_base": (0, dict(type=int, help="first master seed")),
    "duration": (300.0, dict(type=float, help="virtual time per drill")),
    "sites": (3, dict(type=int, help="sites per database")),
    "replicas": (3, dict(
        type=int, help="replica count (replication campaign only)"
    )),
    "no_promote": (False, dict(
        **_SWITCH,
        help="skip the mid-run primary fail-over (replication campaign only)",
    )),
    "mode": ("async", dict(
        choices=("async", "quorum"),
        help="replication durability mode (replication campaign only): "
        "async acknowledges at the local force (RPO = lag), quorum at "
        "majority durability (RPO = 0)",
    )),
    "drop": (None, dict(type=float, help="drop probability")),
    "duplicate": (None, dict(type=float, help="duplicate probability")),
    "delay_spike": (None, dict(type=float, help="delay-spike probability")),
    "crash_mean": (90.0, dict(
        type=float,
        help="mean virtual time between site crash-restarts (0 disables)",
    )),
    "trace": (None, dict(
        metavar="PATH", help="write every fault event as JSONL to PATH"
    )),
    "slo": (False, dict(
        **_SWITCH,
        help="run the online SLO watchdogs (faults profile) alongside each "
        "drill; an unexpected breach fails the drill",
    )),
    "witness": (False, dict(
        **_SWITCH,
        help="certify each drill's history stream online with the sealing "
        "serializability witness; an MVSG cycle fails the drill "
        "(see docs/witness.md)",
    )),
    "quiet": (False, dict(**_SWITCH, help="only print the final verdict")),
}
#: The flags every campaign consumes; the rest are per-campaign
#: (:attr:`Campaign.flags`).
COMMON_FLAGS = ("seeds", "seed_base", "duration", "quiet")


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro drill",
        description="Run seeded fault-injection drills over the distributed "
        "protocols and check the paper's invariants.",
    )
    parser.add_argument(
        "--campaign", choices=tuple(CAMPAIGNS), default="faults", help=_CAMPAIGN_HELP
    )
    for dest, (_default, keywords) in FLAGS.items():
        parser.add_argument(_option(dest), **keywords)
    return parser


def parse_args(
    parser: argparse.ArgumentParser, argv: list[str] | None
) -> argparse.Namespace:
    """Parse, reject flags the chosen campaign does not consume, fill defaults."""
    args = parser.parse_args(argv)
    consumed = COMMON_FLAGS + CAMPAIGNS[args.campaign].flags
    for dest, (default, _keywords) in FLAGS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif dest not in consumed:
            users = [name for name, c in CAMPAIGNS.items() if dest in c.flags]
            parser.error(
                f"{_option(dest)} is not consumed by --campaign {args.campaign} "
                f"(only by: {', '.join(users)})"
            )
    return args


def replay_command(args: argparse.Namespace, seed: int, protocol: str | None) -> str:
    """The command line that re-runs exactly one seed of this invocation:
    every consumed flag whose value differs from its default."""
    values = {**vars(args), "seeds": 1, "seed_base": seed}
    if protocol is not None:
        values["protocol"] = protocol
    parts = [f"python -m repro drill --campaign {args.campaign}"]
    for dest in ("seeds", "seed_base", "duration", *CAMPAIGNS[args.campaign].flags):
        if values[dest] == FLAGS[dest][0]:
            continue
        parts.append(_option(dest))
        if values[dest] is not True:
            parts.append(str(values[dest]))
    return " ".join(parts)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro drill`` — seeded campaigns with a verdict."""
    args = parse_args(build_parser(), argv)
    campaign = CAMPAIGNS[args.campaign]
    run = pkgutil.resolve_name(campaign.runner)
    kwargs = campaign.kwargs(args)
    print(campaign.banner(args, kwargs))
    runs: list[tuple[str | None, Any]] = []
    for protocol in campaign.variants(args):
        selector = {} if protocol is None else {"protocol": protocol}
        tag = "" if protocol is None else f"{protocol:7s} "
        for seed in range(args.seed_base, args.seed_base + args.seeds):
            report = run(seed=seed, duration=args.duration, **selector, **kwargs)
            runs.append((protocol, report))
            if not args.quiet:
                verdict = "ok" if report.ok else "FAIL"
                print(f"  {tag}seed={seed:<4d} {verdict:4s} {campaign.row(report)}")
    kwargs.get("tracer", NULL_TRACER).close()

    reports = [report for _, report in runs]
    failed = [(protocol, report) for protocol, report in runs if not report.ok]
    print(
        f"{len(reports)} {campaign.noun}, {campaign.totals(reports)}"
        f"{len(failed)} failed"
    )
    for protocol, report in failed:
        tag = "" if protocol is None else f"{protocol} "
        print(f"FAILED {tag}seed={report.seed}:", file=sys.stderr)
        for violation in report.violations:
            print(f"  violation: {violation}", file=sys.stderr)
        for name in report.tallies().wedged:
            print(f"  wedged process: {name}", file=sys.stderr)
        print(
            f"  replay: {replay_command(args, report.seed, protocol)}",
            file=sys.stderr,
        )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
