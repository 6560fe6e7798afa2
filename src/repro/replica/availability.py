"""Availability drill: the cluster heals itself, and quorum mode loses nothing.

The replication campaign (:mod:`repro.replica.campaign`) promotes by hand;
this campaign proves the *self-healing* loop end to end, in two phases per
seed:

**Phase 1 — the partition drill** (simulated time).  A quorum-mode
:class:`~repro.replica.cluster.ReplicaCluster` runs a writer population,
replica-served readers, and a write-availability prober while a
:class:`~repro.replica.detect.ClusterSupervisor` heartbeats the cluster.
Mid-batch the primary is partitioned from **every** replica — data plane
(``ship.*``/``ack.*``) and control plane (``hb.*``/``hback.*``) both, so
the replica side is the legitimate majority.  Nothing calls
``fail_over()``: the lease lapses (commits fence), the replicas' suspicion
crosses threshold, a full-cluster majority of deposal votes elects a
successor, and the supervisor promotes it automatically.  The deposed
primary is **left running** (``crash_old=False``) and is deliberately
never told: after the heal its parked segments bounce off the survivors'
epoch guards, and a direct commit attempt on the retained old handle must
fail fenced — the split-brain probe.  Checked per run:

* **RPO = 0** — no commit whose future *resolved* (the quorum ack) is
  missing from the promoted timeline, measured at the promotion moment and
  re-proved against the final durable log by the
  :class:`~repro.faults.invariants.ClusterInvariantChecker`;
* **bounded write outage** — the prober emits each unavailability window
  as an ``avail.outage`` event; the ``availability`` SLO profile bounds it;
* **no split brain** — the deposed primary's post-heal commit attempt
  fences, survivors count stale-epoch segments, and the PR 8 witness
  certifies the history stream with zero ``duplicate_commits``;
* **RO availability** — replica-served snapshots keep committing straight
  through the fail-over (``ro_blocking`` stays a hard zero).

**Phase 2 — the crash-point sweep** (manual couriers).  A fresh quorum
cluster per point crashes the primary at every stage of the commit
pipeline — write staged, COMMIT forced, minority-acked, quorum-acked,
quorum-acked with another in flight — and asserts the acknowledged set
survives promotion every time (the only commits allowed to disappear are
the ones whose futures failed: fenced, indeterminate, or deposed).

Both phases are pure functions of the seed and make up one campaign phase
(the sweep's results ride its fingerprint); ``verify_determinism`` reruns
everything and compares fingerprints, SLO verdicts, and witness reports.
``python -m repro drill --campaign availability`` sweeps seeds through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.distributed.courier import Courier
from repro.errors import QuorumUnavailable, TransactionAborted
from repro.faults.campaign import (
    Campaign,
    CampaignCLI,
    CampaignPhase,
    CampaignReport,
    PhaseRun,
    acked_commit,
    flat_dict,
    rw_attempt,
)
from repro.faults.courier import RetryPolicy
from repro.faults.invariants import ClusterInvariantChecker
from repro.replica.cluster import ReplicaCluster
from repro.replica.detect import ClusterSupervisor, HeartbeatConfig
from repro.replica.quorum import ReplicationMode
from repro.replica.session import ReplicatedDatabase
from repro.sim.engine import closed_loop

#: Commit-pipeline stages the crash sweep kills the primary at.
CRASH_POINTS = (
    "staged",          # writes staged, commit never entered
    "forced",          # COMMIT forced locally, nothing shipped
    "minority_acked",  # shipped + acked by fewer than a majority
    "quorum_acked",    # acked by a majority: the session saw it commit
    "post_ack_inflight",  # one acked commit, a second still in flight
)

#: Writers and replica-served readers.
WRITERS = 3
READERS = 4
#: Bound on the write outage around the automatic fail-over.
MAX_OUTAGE = 25.0


def _link_channels(rid: int) -> tuple[str, ...]:
    """Every channel that makes up the primary <-> replica ``rid`` link."""
    return (f"ship.{rid}", f"ack.{rid}", f"hb.{rid}", f"hback.{rid}")


@dataclass
class AvailabilityPhase(CampaignPhase):
    """What the partition drill observed for one seed."""

    rw_commits: int = 0
    rw_aborts: int = 0
    rw_commits_post: int = 0
    ro_commits: int = 0
    fenced: int = 0
    indeterminate: int = 0
    auto_promotions: int = 0
    promoted_replica: int | None = None
    promoted_at: float | None = None
    partition_at: float = 0.0
    #: Acknowledged commits missing from the promoted timeline — must be 0.
    rpo_txns: int | None = None
    #: Measured write-unavailability windows (prober, virtual time).
    outages: tuple = ()
    #: Deposed-primary segments rejected by the survivors' epoch guards.
    stale_segments: int = 0
    #: The post-heal commit attempt on the retained deposed-primary handle:
    #: True = refused with fenced QuorumUnavailable (the designed outcome),
    #: False = it went through (split brain), None = the probe never ran.
    split_brain_fenced: bool | None = None
    primary_vtnc: int = 0
    epoch: int = 0
    #: The crash-point sweep (phase 2), one result per :data:`CRASH_POINTS`.
    crash_points: list[CrashPointResult] = field(default_factory=list)


@dataclass
class CrashPointResult:
    """One crash-point run of the sweep."""

    point: str
    acked: tuple
    promoted_vtnc: int
    #: Acked tns above the promoted watermark — must be 0 at every point.
    lost_acked: int
    #: State of the in-flight commit future after the crash ("none" for
    #: points without one; failed futures were never acknowledged).
    inflight: str
    #: A post-fail-over commit reached quorum on the healed cluster.
    recovered: bool

    @property
    def ok(self) -> bool:
        return self.lost_acked == 0 and self.recovered

    def as_dict(self) -> dict[str, Any]:
        return {**flat_dict(self), "ok": self.ok}


@dataclass(kw_only=True)
class AvailabilityReport(CampaignReport):
    """Outcome of one seeded availability campaign."""

    n_replicas: int
    writers: int = WRITERS
    max_outage: float = MAX_OUTAGE
    phase: AvailabilityPhase

    @property
    def crash_points(self) -> list[CrashPointResult]:
        return self.phase.crash_points

    def row(self) -> str:
        phase = self.phase
        outage = max(phase.outages) if phase.outages else 0.0
        crash_ok = sum(1 for p in self.crash_points if p.ok)
        return (
            f"rw={phase.rw_commits:<4d} post={phase.rw_commits_post:<3d} "
            f"ro={phase.ro_commits:<5d} "
            f"rpo={phase.rpo_txns if phase.rpo_txns is not None else '-'} "
            f"outage={outage:<6.2f} fenced={phase.fenced:<2d} "
            f"split={'fenced' if phase.split_brain_fenced else 'FAIL'} "
            f"crash={crash_ok}/{len(self.crash_points)}"
            + self.slo_tag()
            + self.witness_tag()
        )


def _run_phase(
    seed: int,
    *,
    duration: float,
    n_replicas: int,
    engine: Any | None = None,
    witness: Any | None = None,
) -> AvailabilityPhase:
    """One seeded campaign phase: the partition drill (phase 1), then the
    crash-point sweep (phase 2)."""
    partition_at = 0.4 * duration
    run = PhaseRun(seed, engine=engine, witness=witness)
    sim, streams = run.sim, run.streams
    # A clean fault schedule: the only injected fault is the explicit
    # partition, so the measured outage is attributable to it alone.
    courier = run.courier(4.0, retry=RetryPolicy(max_attempts=4, base=0.5, cap=8.0))
    cluster = ReplicaCluster(
        n_replicas=n_replicas,
        courier=courier,
        mode=ReplicationMode.QUORUM,
    )
    run.pipeline.attach(cluster)
    session = ReplicatedDatabase(
        cluster, max_staleness=None, stale_policy="stale"
    )
    heartbeat = HeartbeatConfig(
        interval=1.5, suspect_after=6.0, lease_ttl=4.5, commit_timeout=5.0
    )
    supervisor = ClusterSupervisor(
        cluster, heartbeat, until=duration, crash_old=False
    )
    checker = ClusterInvariantChecker(cluster)
    stats = AvailabilityPhase(partition_at=partition_at)
    keys = [f"k{i}" for i in range(8)]
    outages: list[float] = []
    held_channels: list[str] = []
    #: The primary handle and replica objects as of the partition moment —
    #: the deposed incarnation the split-brain probe targets.
    deposed: dict[str, Any] = {}

    def writer(i: int):
        rng = streams.stream(f"avail.writer-{i}")

        def once():
            db = cluster.primary  # re-fetch: survives the fail-over
            txn = db.begin()

            def commit():
                yield acked_commit(db, txn, checker.note_ack)

            error = yield from rw_attempt(
                db, txn, rng.sample(keys, 2),
                service=lambda: rng.expovariate(2.0), commit=commit,
            )
            if error is None:
                stats.rw_commits += 1
                if stats.promoted_at is not None:
                    stats.rw_commits_post += 1
            else:
                stats.rw_aborts += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(0.8), once)

    def reader(i: int):
        rng = streams.stream(f"avail.reader-{i}")

        def once():
            with session.snapshot() as snap:
                for key in rng.sample(keys, 2):
                    snap.read(key)
            stats.ro_commits += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(1.0), once)

    def partitioner():
        yield partition_at
        deposed["primary"] = cluster.primary
        deposed["replicas"] = dict(cluster.replicas)
        for rid in sorted(cluster.replicas):
            for channel in _link_channels(rid):
                courier.partition(channel)
                held_channels.append(channel)

    def split_brain():
        """Post-heal commit attempt on the retained deposed-primary handle."""
        while sim.now < duration:
            yield 2.0
            if (
                stats.promoted_at is not None
                and sim.now >= stats.promoted_at + 3.0
            ):
                break
        else:
            return
        old = deposed.get("primary")
        if old is None or old is cluster.primary:
            return
        txn = old.begin()
        try:
            yield old.write(txn, "__split__", 1)
            yield old.commit(txn)
            stats.split_brain_fenced = False
            stats.violations.append(
                "deposed primary accepted a commit after promotion "
                "(split brain)"
            )
        except QuorumUnavailable:
            stats.split_brain_fenced = True
        except TransactionAborted:
            stats.split_brain_fenced = False
            stats.violations.append(
                "deposed primary refused the split-brain commit, but not "
                "through the fencing path"
            )

    def watcher():
        while sim.now < duration:
            yield duration / 50.0
            checker.snapshot()

    def after_promotion(promoted) -> None:
        stats.promoted_replica = promoted.replica_id
        stats.promoted_at = sim.now
        # The RPO at the promotion moment: acknowledged commits above the
        # promoted watermark.  (Post-promotion tns restart above it, so
        # this is exact only when computed here.)
        promoted_vtnc = cluster.last_failover["promoted_vtnc"]
        stats.rpo_txns = sum(
            1 for tn in checker.acked_tns if tn > promoted_vtnc
        )
        # The promoted primary sits on the majority side of the cut: its
        # links heal.  The deposed primary's parked traffic releases too —
        # straight into the survivors' epoch guards.
        for channel in held_channels:
            courier.heal(channel)
        held_channels.clear()

    supervisor.start()
    cluster.on_promote.append(after_promotion)
    run.spawn("writer", WRITERS, writer)
    run.spawn("reader", READERS, reader)
    # Write availability: each unavailability window is one ``avail.outage``
    # event for the SLO engine.
    prober = run.prober(
        duration, 1.0, lambda: cluster.primary, "__probe__",
        outages, stats.violations, "avail.outage",
    )
    sim.spawn(prober, name="availability-prober")
    sim.spawn(partitioner(), name="partitioner")
    sim.spawn(split_brain(), name="split-brain-probe")
    sim.spawn(watcher(), name="invariant-watcher")
    sim.run()

    # The survivors must converge before the final invariant pass.
    run.quiesce(
        [cluster.shipper],
        lambda: all(cluster.lag_records(r) == 0 for r in cluster.replicas.values()),
    )

    checker.check_final()
    stats.violations.extend(checker.violations)
    # Counted by the supervisor *after* fail_over (and its hooks) return,
    # so it is only readable here, not inside the promotion hook.
    stats.auto_promotions = supervisor.auto_promotions
    stats.primary_vtnc = cluster.primary.vc.vtnc
    stats.epoch = cluster.epoch
    stats.outages = tuple(outages)
    stats.fenced = cluster.counters.get("quorum.fenced")
    stats.indeterminate = cluster.counters.get("quorum.indeterminate")
    stats.stale_segments = sum(
        replica.segments_stale
        for replica in deposed.get("replicas", {}).values()
    )
    run.settle(stats)
    stats.crash_points = [
        _run_crash_point(point, n_replicas=n_replicas) for point in CRASH_POINTS
    ]
    return stats


def _commit_async(cluster: ReplicaCluster, acked: list, key: str, value: Any):
    """Enter one commit into the (manual-courier) quorum pipeline."""
    db = cluster.primary
    txn = db.begin()
    db.write(txn, key, value).result()
    future = acked_commit(db, txn, acked.append)
    return txn, future


def _pump_quorum(courier: Courier, rids: tuple[int, ...]) -> None:
    """Deliver ship segments and their acks for exactly ``rids``."""
    for rid in rids:
        courier.pump(channel=f"ship.{rid}")
    for rid in rids:
        courier.pump(channel=f"ack.{rid}")


def _run_crash_point(point: str, *, n_replicas: int = 3) -> CrashPointResult:
    """Crash the primary at one pipeline stage; prove the acked set survives.

    Manual courier: every ship/ack delivery is explicit, so the crash lands
    at exactly the intended stage.  ``call_later`` is a no-op without a
    clock, so nothing times out — the in-flight commit's fate is decided
    solely by the crash (``depose`` fails it with ``QuorumUnavailable``).
    """
    courier = Courier(manual=True)
    cluster = ReplicaCluster(
        n_replicas=n_replicas,
        courier=courier,
        mode=ReplicationMode.QUORUM,
    )
    acked: list[int] = []
    # Seed two fully replicated, fully acknowledged commits.
    for i in range(2):
        _, future = _commit_async(cluster, acked, "base", i)
        courier.pump()
        assert future.done and not future.failed

    majority_rids = tuple(sorted(cluster.replicas))[: cluster.gate.majority() - 1]
    minority_rids = tuple(sorted(cluster.replicas))[:1]
    inflight = "none"
    if point == "staged":
        txn = cluster.primary.begin()
        cluster.primary.write(txn, "x", 99).result()
    elif point == "forced":
        _, future = _commit_async(cluster, acked, "x", 99)
        inflight = "pending"
    elif point == "minority_acked":
        _, future = _commit_async(cluster, acked, "x", 99)
        _pump_quorum(courier, minority_rids)
        inflight = "pending"
    elif point == "quorum_acked":
        _, future = _commit_async(cluster, acked, "x", 99)
        _pump_quorum(courier, majority_rids)
        assert future.done and not future.failed
        inflight = "acked"
    elif point == "post_ack_inflight":
        _, first = _commit_async(cluster, acked, "x", 99)
        _pump_quorum(courier, majority_rids)
        assert first.done and not first.failed
        _, future = _commit_async(cluster, acked, "y", 100)
        inflight = "acked+pending"
    else:  # pragma: no cover - guarded by CRASH_POINTS
        raise ValueError(f"unknown crash point {point!r}")

    cluster.fail_over(crash_old=True)
    if inflight == "pending" and future.failed:
        inflight = "failed"  # deposed: the session was told, not acked
    elif inflight == "acked+pending":
        inflight = "acked+failed" if future.failed else "acked+pending"
    promoted_vtnc = cluster.last_failover["promoted_vtnc"]
    lost_acked = sum(1 for tn in acked if tn > promoted_vtnc)

    # The healed cluster must still take quorum-acknowledged writes.
    _, post = _commit_async(cluster, acked, "post", 1)
    courier.pump()
    recovered = post.done and not post.failed
    return CrashPointResult(
        point=point,
        acked=tuple(acked),
        promoted_vtnc=promoted_vtnc,
        lost_acked=lost_acked,
        inflight=inflight,
        recovered=recovered,
    )


def _objectives() -> Any:
    from repro.obs.slo import availability_objectives

    return availability_objectives(max_outage=MAX_OUTAGE)


def _checks(report: AvailabilityReport) -> Iterable[str]:
    phase = report.phase
    if not phase.rw_commits:
        yield "no read-write commits: workload inert"
    if not phase.ro_commits:
        yield "no read-only commits: replica path inert"
    if phase.auto_promotions < 1:
        yield "no automatic fail-over: the supervisor never promoted"
    if phase.rpo_txns is None:
        yield "promotion happened but RPO not measured"
    elif phase.rpo_txns != 0:
        yield (
            f"quorum mode lost {phase.rpo_txns} acknowledged commit(s) at "
            "the automatic fail-over (RPO must be 0)"
        )
    if not phase.rw_commits_post:
        yield (
            "no acknowledged commits after the promotion: writes never "
            "resumed"
        )
    if not phase.outages:
        yield "the prober measured no outage: the partition had no effect"
    elif max(phase.outages) > MAX_OUTAGE:
        yield (
            f"write outage {max(phase.outages):g} exceeded the "
            f"{MAX_OUTAGE:g} bound"
        )
    if phase.split_brain_fenced is None:
        yield "the split-brain probe never ran"
    if not phase.stale_segments:
        yield (
            "no stale-epoch segments rejected: the deposed primary's "
            "traffic never exercised the epoch guard"
        )
    for point in phase.crash_points:
        if not point.ok:
            yield (
                f"crash point {point.point!r}: lost_acked="
                f"{point.lost_acked} recovered={point.recovered}"
            )


def _witness_checks(report: AvailabilityReport) -> Iterable[str]:
    if report.witness.get("duplicate_commits"):
        yield (
            f"witness counted {report.witness['duplicate_commits']} "
            "duplicate commit(s): the deposed primary leaked a second "
            "timeline"
        )


AVAILABILITY = Campaign(
    name="availability",
    defaults=dict(duration=120.0, n_replicas=3),
    phase=_run_phase,
    report=AvailabilityReport,
    objectives=_objectives,
    checks=_checks,
    witness_checks=_witness_checks,
)


def run_availability_campaign(seed: int = 0, **knobs: Any) -> AvailabilityReport:
    """Run one seeded availability campaign and check the healing promises.

    Knobs: ``duration`` (default 120), ``n_replicas`` (3) and
    ``verify_determinism`` (True).  Phase 1 partitions the primary from
    every replica at ``0.4 * duration`` and requires the supervisor to fail
    over on its own; phase 2 sweeps :data:`CRASH_POINTS`.  The
    ``availability`` SLO profile rides the run (``write_outage <=``
    :data:`MAX_OUTAGE` is the headline objective); the sealing witness
    certifies the history stream across the automatic promotion and its
    ``duplicate_commits`` count must be zero — the fenced deposed primary
    contributed no second timeline.
    """
    return AVAILABILITY.run(seed, **knobs)


CLI = CampaignCLI(
    run=run_availability_campaign,
    flags=("replicas",),
    knobs=lambda args: dict(n_replicas=args.replicas),
    banner=lambda args, knobs: (
        f"availability campaign: seeds={args.seeds} replicas={args.replicas} "
        f"duration={args.duration} mode=quorum (partition -> automatic "
        f"fail-over + crash-point sweep)"
    ),
    minimum={"replicas": 1},
)


__all__ = [
    "CRASH_POINTS",
    "AvailabilityPhase",
    "AvailabilityReport",
    "CrashPointResult",
    "run_availability_campaign",
]
