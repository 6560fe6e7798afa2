"""Shard drill: partition one primary, fail it over, nothing else stalls.

The sharded layer (:mod:`repro.shard.database`) makes four promises that
only a fault drill can certify together, and this campaign checks all of
them per seed:

1. **1SR** — the full multi-shard history (fast-path commits, cross-shard
   2PC, vector snapshots, a mid-batch fail-over) passes the S1 checker,
   and the PR 8 online witness certifies the same stream with zero gate
   violations and zero duplicate commits.
2. **Snapshot-vector consistency** — every read-only begin's swept vector
   is audited against the live cross-shard visibility logs
   (:meth:`~repro.shard.database.ShardedDatabase.snapshot_audit` must come
   back empty) and the ``shard.vector_inconsistent`` tripwire stays zero.
3. **Byte-deterministic double runs** — the whole drill is a pure function
   of its seed; :func:`repro.faults.campaign.verify_double_run` reruns
   it and compares phase fingerprints, SLO reports, and witness reports.
4. **Fail-over isolation** — while one shard is partitioned and then
   failed over, the *other* shards' probers measure **zero** outage and
   their writers keep committing (the multi-primary claim: a fast path
   references nothing of the failed shard), and the failed shard's own
   write outage closes within :data:`MAX_OUTAGE` once a warm standby is
   promoted from its durable WAL.

The workload mixes pinned single-shard writers (the fast path), cross-shard
writers (the 2PC path that populates the xlogs the vector sweep guards
against), vector read-only sessions auditing every begin, and one
write-availability prober per shard.  Each shard carries a log-shipped
replica chain, which also makes every visibility advance durable (the
CHECKPOINT marker), so a vector pinned across the crash can never point
above the recovered watermark — the drill holds ``shard.ro_blocked`` to a
hard zero.  ``python -m repro drill --campaign shard`` sweeps seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import VersionNotFound
from repro.faults.campaign import (
    Campaign,
    CampaignCLI,
    CampaignPhase,
    CampaignReport,
    PhaseRun,
    rw_attempt,
)
from repro.faults.courier import RetryPolicy
from repro.histories.checker import check_one_copy_serializable
from repro.shard.database import ShardedDatabase
from repro.sim.engine import closed_loop

#: Pinned single-shard writers, cross-shard writers and vector readers.
WRITERS = 6
CROSS_WRITERS = 2
READERS = 4
#: Bound on the failed shard's write outage.
MAX_OUTAGE = 30.0


@dataclass
class ShardPhase(CampaignPhase):
    """What one seeded shard drill observed."""

    rw_commits: int = 0
    rw_aborts: int = 0
    cross_commits: int = 0
    cross_aborts: int = 0
    ro_sessions: int = 0
    ro_reads: int = 0
    #: Vector audits that came back non-empty — must be 0.
    audits_failed: int = 0
    #: Worst sweep cost seen by any session (committed-transaction ticks).
    max_staleness: int = 0
    #: Commits per shard over the whole run, and during the outage window.
    commits_per_shard: dict[int, int] = field(default_factory=dict)
    survivor_commits_during: int = 0
    failed_commits_post: int = 0
    #: Measured write-unavailability windows, per shard (prober).
    outages_per_shard: dict[int, tuple] = field(default_factory=dict)
    partitioned_at: float | None = None
    failover_at: float | None = None
    lost_records: int | None = None
    fast_commits: int = 0
    vector_lowered: int = 0
    vector_inconsistent: int = 0
    ro_blocked: int = 0
    failovers: int = 0
    #: Watermark lag of every replica behind its shard after quiesce.
    replica_lag: int = 0
    serializable: bool | None = None
    watermarks: tuple = ()
    epoch: int = 0


@dataclass(kw_only=True)
class ShardReport(CampaignReport):
    """Outcome of one seeded shard campaign."""

    DERIVED = ("fail_shard",)

    n_shards: int
    max_outage: float = MAX_OUTAGE
    phase: ShardPhase

    @property
    def fail_shard(self) -> int:
        """The shard the drill partitions and fails over: the last one, so
        shard 1's degenerate single-shard behavior stays untouched."""
        return self.n_shards

    def row(self) -> str:
        phase = self.phase
        failed_outages = phase.outages_per_shard.get(self.fail_shard, ())
        outage = max(failed_outages) if failed_outages else 0.0
        return (
            f"fast={phase.fast_commits:<4d} x={phase.cross_commits:<3d} "
            f"ro={phase.ro_sessions:<4d} "
            f"audits={phase.audits_failed} "
            f"survive={phase.survivor_commits_during:<3d} "
            f"outage={outage:<6.2f} "
            f"det={'yes' if self.deterministic else 'NO'}"
            + self.slo_tag()
            + self.witness_tag()
        )


def pinned_keys(
    n_shards: int, writers: int, keys_per_writer: int
) -> tuple[dict[int, int], dict[int, list[str]]]:
    """Writer ``i`` is pinned to shard ``(i mod N) + 1`` by explicit
    ``"s<id>:"`` placement, on private keys — every transaction is
    single-shard, i.e. the fast path.  Returns ``(home, keys)``."""
    home = {i: (i % n_shards) + 1 for i in range(writers)}
    keys = {
        i: [f"s{home[i]}:w{i}k{j}" for j in range(keys_per_writer)]
        for i in range(writers)
    }
    return home, keys


def _run_phase(
    seed: int,
    *,
    duration: float,
    n_shards: int,
    engine: Any | None = None,
    witness: Any | None = None,
) -> ShardPhase:
    """One seeded shard drill."""
    fail_shard = n_shards
    run = PhaseRun(seed, engine=engine, witness=witness)
    sim, streams = run.sim, run.streams
    # A clean fault schedule: the only injected fault is the explicit
    # per-shard partition + fail-over, so every measured effect is
    # attributable to it alone.
    courier = run.courier(4.0, retry=RetryPolicy(max_attempts=4, base=0.5, cap=8.0))
    db = ShardedDatabase(
        n_shards=n_shards,
        courier=courier,
        prepare_timeout=4.0,
        replicas_per_shard=1,
    )
    run.pipeline.attach(db)
    stats = ShardPhase()
    stats.commits_per_shard = {sid: 0 for sid in db.sites}
    outages: dict[int, list[float]] = {sid: [] for sid in db.sites}

    home, keys = pinned_keys(n_shards, WRITERS, 4)
    # Cross-shard writers own one key per shard; every transaction touches
    # two shards, exercising 2PC and populating the visibility xlogs.
    cross_keys = {
        i: {sid: f"s{sid}:x{i}" for sid in db.sites}
        for i in range(CROSS_WRITERS)
    }
    read_pool = [ks[0] for ks in keys.values()] + [
        key for per in cross_keys.values() for key in per.values()
    ]

    def in_outage_window() -> bool:
        return (
            stats.partitioned_at is not None
            and sim.now >= stats.partitioned_at
            and stats.failover_at is None
        )

    def writer(i: int):
        rng = streams.stream(f"shard.writer-{i}")
        sid = home[i]

        def once():
            txn = db.begin()
            during = in_outage_window()
            error = yield from rw_attempt(
                db, txn, rng.sample(keys[i], 2), service=lambda: rng.expovariate(2.0)
            )
            if error is not None:
                stats.rw_aborts += 1
                return
            stats.rw_commits += 1
            stats.commits_per_shard[sid] += 1
            if during and sid != fail_shard:
                stats.survivor_commits_during += 1
            if stats.failover_at is not None and sid == fail_shard:
                stats.failed_commits_post += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(0.8), once)

    def cross_writer(i: int):
        rng = streams.stream(f"shard.cross-{i}")
        sids = sorted(db.sites)

        def once():
            a, b = rng.sample(sids, 2)
            txn = db.begin()
            error = yield from rw_attempt(db, txn, (cross_keys[i][a], cross_keys[i][b]))
            if error is None:
                stats.cross_commits += 1
            else:
                stats.cross_aborts += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(0.5), once)

    def reader(i: int):
        rng = streams.stream(f"shard.reader-{i}")

        def once():
            txn = db.begin(read_only=True)
            # Certification 2, per session: the swept vector must tear no
            # cross-shard commit on the live xlogs.
            if db.snapshot_audit(txn):
                stats.audits_failed += 1
            stats.max_staleness = max(
                stats.max_staleness, txn.meta.get("shard.staleness", 0)
            )
            for key in rng.sample(read_pool, 2):
                try:
                    yield db.read(txn, key)
                    stats.ro_reads += 1
                except VersionNotFound:
                    pass  # the owning writer has not created the key yet
            db.commit(txn).result()
            stats.ro_sessions += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(1.0), once)

    def partitioner():
        yield 0.35 * duration
        for channel in ShardedDatabase.shard_channels(fail_shard):
            courier.partition(channel)
        stats.partitioned_at = sim.now
        yield 10.0
        # Promote the warm standby from the durable WAL first, then heal:
        # the parked client traffic releases straight into the recovered
        # incarnation (pre-decision transactions there were aborted with
        # typed errors by the crash; their redeliveries must no-op).
        stats.lost_records = db.fail_over_shard(fail_shard)
        for channel in ShardedDatabase.shard_channels(fail_shard):
            courier.heal(channel)
        stats.failover_at = sim.now

    run.spawn("writer", WRITERS, writer)
    run.spawn("cross-writer", CROSS_WRITERS, cross_writer)
    run.spawn("reader", READERS, reader)
    # Per-shard write availability.  The failed shard's prober must measure
    # a bounded outage; every *other* shard's prober must measure none at
    # all — the fail-over isolation promise.
    for sid in db.sites:
        prober = run.prober(
            duration, 1.0, lambda: db, f"s{sid}:__probe__",
            outages[sid], stats.violations, "shard.outage", f"shard {sid} ", (sid,),
        )
        sim.spawn(prober, name=f"prober-s{sid}")
    sim.spawn(partitioner(), name="partitioner")
    sim.run()

    # Every replica must converge on its shard's watermark before the
    # final checks.
    chains = [site for site in db.sites.values() if site.shipper is not None]
    run.quiesce(
        [site.shipper for site in chains],
        lambda: all(
            site.shipper.lag_records(rid) == 0
            for site in chains
            for rid in site.replicas
        ),
    )
    stats.replica_lag = sum(
        site.shipper.lag_txns(rid, site.vc.vtnc)
        for site in chains
        for rid in site.replicas
    )

    # Certification 1: the full multi-shard history is one-copy
    # serializable (the witness certifies the same stream online).
    stats.serializable = check_one_copy_serializable(db.history).serializable
    stats.outages_per_shard = {
        sid: tuple(windows) for sid, windows in outages.items()
    }
    stats.fast_commits = db.counters.get("shard.fast_commits")
    stats.vector_lowered = db.counters.get("shard.vector_lowered")
    stats.vector_inconsistent = db.counters.get("shard.vector_inconsistent")
    stats.ro_blocked = db.counters.get("shard.ro_blocked")
    stats.failovers = db.counters.get("shard.failovers")
    stats.watermarks = tuple(sorted(db.watermarks().items()))
    stats.epoch = db.sites[fail_shard].epoch
    run.settle(stats)
    return stats


def _objectives() -> Any:
    from repro.obs.slo import shard_objectives

    return shard_objectives(max_staleness=24.0, max_outage=MAX_OUTAGE)


def _checks(report: ShardReport) -> Iterable[str]:
    phase, fail_shard = report.phase, report.fail_shard
    # Certification 1: 1SR.
    if not phase.serializable:
        yield "the multi-shard history is not one-copy serializable"
    # Certification 2: snapshot-vector consistency.
    if phase.audits_failed:
        yield (
            f"{phase.audits_failed} snapshot vector(s) tore a cross-shard "
            "commit (audit non-empty)"
        )
    if phase.vector_inconsistent:
        yield (
            f"shard.vector_inconsistent tripped {phase.vector_inconsistent} "
            "time(s)"
        )
    # Certification 4: fail-over isolation.
    if phase.failovers != 1:
        yield f"expected exactly 1 fail-over, observed {phase.failovers}"
    if not phase.survivor_commits_during:
        yield (
            "no survivor-shard commits during the outage window: the "
            "fail-over stalled the other shards"
        )
    if not phase.failed_commits_post:
        yield (
            "no commits on the failed shard after its fail-over: writes "
            "never resumed there"
        )
    failed_outages = phase.outages_per_shard.get(fail_shard, ())
    if not failed_outages:
        yield (
            "the failed shard's prober measured no outage: the partition "
            "had no effect"
        )
    elif max(failed_outages) > MAX_OUTAGE:
        yield (
            f"failed-shard write outage {max(failed_outages):g} exceeded "
            f"the {MAX_OUTAGE:g} bound"
        )
    for sid, windows in sorted(phase.outages_per_shard.items()):
        if sid != fail_shard and windows:
            yield (
                f"surviving shard {sid} measured a write outage "
                f"({max(windows):g}): fail-over isolation broken"
            )
    # Hard zeros and liveness.
    if phase.ro_blocked:
        yield (
            f"{phase.ro_blocked} vector read(s) blocked on a shard "
            "watermark (the zero-coordination claim)"
        )
    if phase.replica_lag:
        yield (
            f"replica chains {phase.replica_lag} txn(s) behind their "
            "shards after quiesce"
        )
    # Inertness guards: every path under test must actually have run.
    if not phase.rw_commits:
        yield "no fast-path commits: workload inert"
    if not phase.cross_commits:
        yield "no cross-shard commits: the 2PC path is inert"
    if not phase.ro_sessions:
        yield "no vector snapshots: the read path is inert"
    # Certification 3, byte-deterministic double runs, is conclude's.


def _witness_checks(report: ShardReport) -> Iterable[str]:
    if report.witness.get("duplicate_commits"):
        yield (
            f"witness counted {report.witness['duplicate_commits']} "
            "duplicate commit(s) across the fail-over"
        )


SHARD = Campaign(
    name="shard",
    defaults=dict(duration=120.0, n_shards=3),
    phase=_run_phase,
    report=ShardReport,
    objectives=_objectives,
    checks=_checks,
    witness_checks=_witness_checks,
)


def run_shard_campaign(seed: int = 0, **knobs: Any) -> ShardReport:
    """Run one seeded shard campaign and check all four certifications.

    Knobs: ``duration`` (default 120), ``n_shards`` (3, at least 2) and
    ``verify_determinism`` (True).  The last shard is partitioned at
    ``0.35 * duration`` and failed over 10 virtual-time units later.  The
    ``shard`` SLO profile rides the run, and the sealing witness certifies
    the history stream across the fail-over.
    """
    return SHARD.run(seed, **knobs)


CLI = CampaignCLI(
    run=run_shard_campaign,
    flags=("sites",),
    knobs=lambda args: dict(n_shards=args.sites),
    banner=lambda args, knobs: (
        f"shard campaign: seeds={args.seeds} shards={args.sites} "
        f"duration={args.duration} (partition one shard -> fail-over "
        f"mid-batch; certify 1SR + vector consistency + determinism + "
        f"fail-over isolation)"
    ),
    # The cross-shard writers draw two distinct shards per transaction.
    minimum={"sites": 2},
)


__all__ = ["ShardPhase", "ShardReport", "run_shard_campaign"]
