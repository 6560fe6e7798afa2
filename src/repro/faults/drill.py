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
:func:`run_drill` is the library entry point.

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
from functools import partial
from typing import Any

from repro.distributed.database import DistributedVCDatabase
from repro.distributed.dmv2pl import DistributedMV2PL
from repro.faults.campaign import (
    CampaignCLI,
    CampaignReport,
    DoubleRun,
    PhaseRun,
    cli_spec,
    rw_attempt,
    slo_engine,
    spec_text,
)
from repro.faults.invariants import FaultInvariantChecker
from repro.faults.schedule import DEFAULT_SPEC, FaultSpec
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.engine import closed_loop

PROTOCOLS = ("dvc", "dmv2pl")

#: Read-write and read-only clients per drill (DMV2PL drills run no readers).
WRITERS = 4
READERS = 2


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

    def row(self) -> str:
        faults = self.faults
        return (
            f"commits={self.commits:<4d} aborts={self.aborts:<3d} "
            f"crashes={self.crashes:<2d} drops={faults.get('drops', 0):<3d} "
            f"dups={faults.get('duplicates', 0):<3d} "
            f"parked={faults.get('partition_deferrals', 0)}"
            + self.slo_tag()
            + self.witness_tag()
        )


def run_drill(
    protocol: str = "dvc",
    seed: int = 0,
    *,
    duration: float = 300.0,
    n_sites: int = 3,
    spec: FaultSpec = DEFAULT_SPEC,
    crash_mean: float | None = 90.0,
    tracer: Tracer = NULL_TRACER,
    slo: bool = False,
    witness: bool = False,
) -> DrillReport:
    """Run one seeded fault drill; returns its :class:`DrillReport`.

    :data:`WRITERS` read-write and :data:`READERS` read-only clients run
    against ``n_sites`` sites over a courier faulted per ``spec``.
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
    run = PhaseRun(seed)
    sim = run.sim
    courier = run.courier(1.0, spec=spec)
    schedule = courier.schedule
    readers = READERS
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
        # Fault timelines in virtual time, read with no Python frame.
        tracer.clock = partial(getattr, sim, "now")
    instrumentation = attach_tracer(db, tracer)
    checker = FaultInvariantChecker(db)
    rng = run.streams.stream("clients")
    keys = [f"s{s}:k{i}" for s in range(1, n_sites + 1) for i in range(4)]
    report = DrillReport(protocol=protocol, seed=seed, duration=duration)

    def write_once():
        txn = db.begin()
        error = yield from rw_attempt(db, txn, rng.sample(keys, 2))
        if error is None:
            checker.note_commit(txn)
            report.commits += 1
        else:
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
        "writer", WRITERS,
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
            protocol, seed, report.ok, report.commits, report.aborts, report.crashes,
        )
    instrumentation.detach()
    return report


def _tracer(args: argparse.Namespace) -> Tracer:
    if not args.trace:
        return NULL_TRACER
    from repro.obs.exporters import JsonlExporter

    return Tracer(exporters=[JsonlExporter(args.trace)])


def _protocols(args: argparse.Namespace) -> tuple[str, ...]:
    return PROTOCOLS if args.protocol == "both" else (args.protocol,)


CLI = CampaignCLI(
    run=run_drill,
    flags=(
        "protocol", "sites", "drop", "duplicate", "delay_spike",
        "crash_mean", "trace", "slo", "witness",
    ),
    knobs=lambda args: dict(
        n_sites=args.sites,
        spec=cli_spec(args, DEFAULT_SPEC),
        crash_mean=args.crash_mean or None,
        tracer=_tracer(args),
        slo=args.slo,
        witness=args.witness,
    ),
    banner=lambda args, knobs: (
        f"fault drill: protocols={','.join(_protocols(args))} "
        f"seeds={args.seeds} {spec_text(knobs['spec'])} "
        f"crash_mean={args.crash_mean or 'off'}"
    ),
    minimum={"sites": 1},
    variants=_protocols,
    noun="drills",
    totals=lambda reports: (
        f"{sum(r.commits for r in reports)} commits, "
        f"{sum(sum(r.faults.values()) for r in reports)} injected faults, "
    ),
)


# -- the CLI: one table, one seed loop --------------------------------------------------


#: Every ``--campaign`` value -> ``"module:attribute"`` of its
#: :class:`~repro.faults.campaign.CampaignCLI`, imported only when needed so
#: ``import repro`` never pays for a campaign module.  A new drill is one
#: more row here (plus its campaign module); ``docs/api.md`` lists the
#: flags each consumes.
CAMPAIGNS: dict[str, str] = {
    "faults": "repro.faults.drill:CLI",
    "overload": "repro.qos.overload:CLI",
    "replication": "repro.replica.campaign:CLI",
    "memory": "repro.qos.memory:CLI",
    "availability": "repro.replica.availability:CLI",
    "shard": "repro.shard.campaign:CLI",
}


def campaign_cli(name: str) -> CampaignCLI:
    """The declaration behind ``--campaign name``."""
    return pkgutil.resolve_name(CAMPAIGNS[name])


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
    cli = campaign_cli(args.campaign)
    consumed = COMMON_FLAGS + cli.flags
    for dest, (default, _keywords) in FLAGS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif dest not in consumed:
            users = [name for name in CAMPAIGNS if dest in campaign_cli(name).flags]
            parser.error(
                f"{_option(dest)} is not consumed by --campaign {args.campaign} "
                f"(only by: {', '.join(users)})"
            )
    for dest, least in {"seeds": 1, **cli.minimum}.items():
        if getattr(args, dest) < least:
            parser.error(
                f"{_option(dest)} must be at least {least} for "
                f"--campaign {args.campaign}"
            )
    return args


def replay_command(args: argparse.Namespace, seed: int, protocol: str | None) -> str:
    """The command line that re-runs exactly one seed of this invocation:
    every consumed flag whose value differs from its default."""
    values = {**vars(args), "seeds": 1, "seed_base": seed}
    if protocol is not None:
        values["protocol"] = protocol
    parts = [f"python -m repro drill --campaign {args.campaign}"]
    for dest in ("seeds", "seed_base", "duration", *campaign_cli(args.campaign).flags):
        if values[dest] == FLAGS[dest][0]:
            continue
        parts.append(_option(dest))
        if values[dest] is not True:
            parts.append(str(values[dest]))
    return " ".join(parts)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro drill`` — seeded campaigns with a verdict."""
    args = parse_args(build_parser(), argv)
    campaign = campaign_cli(args.campaign)
    knobs = campaign.knobs(args)
    print(campaign.banner(args, knobs))
    runs: list[tuple[str | None, Any]] = []
    for protocol in campaign.variants(args):
        selector = {} if protocol is None else {"protocol": protocol}
        tag = "" if protocol is None else f"{protocol:7s} "
        for seed in range(args.seed_base, args.seed_base + args.seeds):
            report = campaign.run(
                seed=seed, duration=args.duration, **selector, **knobs
            )
            runs.append((protocol, report))
            if not args.quiet:
                verdict = "ok" if report.ok else "FAIL"
                print(f"  {tag}seed={seed:<4d} {verdict:4s} {report.row()}")
    knobs.get("tracer", NULL_TRACER).close()

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
