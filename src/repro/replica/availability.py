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

Both phases are pure functions of the seed; ``verify_determinism`` reruns
everything and compares fingerprints, SLO verdicts, and witness reports.
``python -m repro drill --campaign availability`` sweeps seeds through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.distributed.courier import Courier
from repro.errors import ProtocolError, QuorumUnavailable, TransactionAborted
from repro.faults.campaign import (
    CampaignPhase,
    CampaignReport,
    PhaseRun,
    acked_commit,
    closed_loop,
    flat_dict,
    increment,
    slo_engine,
    verify_double_run,
)
from repro.faults.courier import RetryPolicy
from repro.faults.invariants import ClusterInvariantChecker
from repro.replica.cluster import ReplicaCluster
from repro.replica.detect import ClusterSupervisor, HeartbeatConfig
from repro.replica.quorum import ReplicationMode
from repro.replica.session import ReplicatedDatabase

#: Commit-pipeline stages the crash sweep kills the primary at.
CRASH_POINTS = (
    "staged",          # writes staged, commit never entered
    "forced",          # COMMIT forced locally, nothing shipped
    "minority_acked",  # shipped + acked by fewer than a majority
    "quorum_acked",    # acked by a majority: the session saw it commit
    "post_ack_inflight",  # one acked commit, a second still in flight
)


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


@dataclass
class AvailabilityReport(CampaignReport):
    """Outcome of one seeded availability campaign."""

    n_replicas: int
    writers: int
    max_outage: float
    phase: AvailabilityPhase
    crash_points: list[CrashPointResult] = field(default_factory=list)


def _run_partition_phase(
    seed: int,
    *,
    duration: float,
    n_replicas: int,
    writers: int,
    readers: int,
    partition_at: float,
    heartbeat: HeartbeatConfig,
    n_keys: int = 8,
    probe_interval: float = 1.0,
    engine: Any | None = None,
    witness: Any | None = None,
) -> AvailabilityPhase:
    """One seeded partition drill (phase 1)."""
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
    supervisor = ClusterSupervisor(
        cluster, heartbeat, until=duration, crash_old=False
    )
    checker = ClusterInvariantChecker(cluster)
    stats = AvailabilityPhase(partition_at=partition_at)
    keys = [f"k{i}" for i in range(n_keys)]
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
            try:
                yield from increment(
                    db, txn, rng.sample(keys, 2),
                    service=lambda: rng.expovariate(2.0),
                )
                yield acked_commit(db, txn, checker.note_ack)
                stats.rw_commits += 1
                if stats.promoted_at is not None:
                    stats.rw_commits_post += 1
            except (TransactionAborted, ProtocolError):
                # Fenced, indeterminate, deposed, or a deadlock victim —
                # all typed and retryable; the loop simply tries again.
                if txn.is_active:
                    db.abort(txn)
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
        except (TransactionAborted, ProtocolError):
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
        # Silence the deposed-but-alive primary's recorder (attach stacks
        # handles; without the detach its post-promotion events would keep
        # flowing and the witness would see two timelines).
        run.pipeline.detach()
        run.pipeline.attach(cluster)

    supervisor.start()
    cluster.on_promote.append(after_promotion)
    run.spawn("writer", writers, writer)
    run.spawn("reader", readers, reader)
    # Write availability: each unavailability window is one ``avail.outage``
    # event for the SLO engine.
    prober = run.prober(
        duration, probe_interval, lambda: cluster.primary, "__probe__",
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


def run_availability_campaign(
    seed: int = 0,
    *,
    duration: float = 120.0,
    n_replicas: int = 3,
    writers: int = 3,
    readers: int = 4,
    partition_at: float | None = None,
    heartbeat: HeartbeatConfig | None = None,
    max_outage: float = 25.0,
    verify_determinism: bool = True,
    slo: bool = True,
    witness: bool = True,
) -> AvailabilityReport:
    """Run one seeded availability campaign and check the healing promises.

    Phase 1 partitions the primary from every replica at ``partition_at``
    (default ``0.4 * duration``) and requires the supervisor to fail over
    on its own; phase 2 sweeps :data:`CRASH_POINTS`.  With ``slo`` the
    ``availability`` profile rides the run (``write_outage <= max_outage``
    is the headline objective); with ``witness`` the sealing witness
    certifies the history stream across the automatic promotion and its
    ``duplicate_commits`` count must be zero — the fenced deposed primary
    contributed no second timeline.
    """
    if heartbeat is None:
        heartbeat = HeartbeatConfig(
            interval=1.5, suspect_after=6.0, lease_ttl=4.5, commit_timeout=5.0
        )
    if partition_at is None:
        partition_at = 0.4 * duration

    def make_engine() -> Any:
        from repro.obs.slo import availability_objectives

        return slo_engine(availability_objectives(max_outage=max_outage), duration)

    knobs = dict(
        duration=duration,
        n_replicas=n_replicas,
        writers=writers,
        readers=readers,
        partition_at=partition_at,
        heartbeat=heartbeat,
    )
    crash_points: list[Any] = []

    def sweep() -> list[CrashPointResult]:
        return [
            _run_crash_point(point, n_replicas=n_replicas) for point in CRASH_POINTS
        ]

    def first_run(engine: Any | None, certifier: Any | None) -> Any:
        phase = _run_partition_phase(seed, engine=engine, witness=certifier, **knobs)
        if not crash_points:
            crash_points.extend(sweep())
        return phase

    outcome = verify_double_run(
        first_run,
        slo=slo,
        witness=witness,
        make_engine=make_engine,
        verify=verify_determinism,
        extra_check=lambda: crash_points == sweep(),
    )
    phase = outcome.result

    report = AvailabilityReport(
        seed=seed,
        duration=duration,
        n_replicas=n_replicas,
        writers=writers,
        max_outage=max_outage,
        phase=phase,
        crash_points=crash_points,
    )
    if not phase.rw_commits:
        report.violations.append("no read-write commits: workload inert")
    if not phase.ro_commits:
        report.violations.append("no read-only commits: replica path inert")
    if phase.auto_promotions < 1:
        report.violations.append(
            "no automatic fail-over: the supervisor never promoted"
        )
    if phase.rpo_txns is None:
        report.violations.append("promotion happened but RPO not measured")
    elif phase.rpo_txns != 0:
        report.violations.append(
            f"quorum mode lost {phase.rpo_txns} acknowledged commit(s) at "
            "the automatic fail-over (RPO must be 0)"
        )
    if not phase.rw_commits_post:
        report.violations.append(
            "no acknowledged commits after the promotion: writes never "
            "resumed"
        )
    if not phase.outages:
        report.violations.append(
            "the prober measured no outage: the partition had no effect"
        )
    elif max(phase.outages) > max_outage:
        report.violations.append(
            f"write outage {max(phase.outages):g} exceeded the "
            f"{max_outage:g} bound"
        )
    if phase.split_brain_fenced is None:
        report.violations.append("the split-brain probe never ran")
    if not phase.stale_segments:
        report.violations.append(
            "no stale-epoch segments rejected: the deposed primary's "
            "traffic never exercised the epoch guard"
        )
    for point in crash_points:
        if not point.ok:
            report.violations.append(
                f"crash point {point.point!r}: lost_acked="
                f"{point.lost_acked} recovered={point.recovered}"
            )
    report.conclude(outcome)
    if report.witness is not None and report.witness.get("duplicate_commits"):
        report.violations.append(
            f"witness counted {report.witness['duplicate_commits']} "
            "duplicate commit(s): the deposed primary leaked a second "
            "timeline"
        )
    return report


__all__ = [
    "CRASH_POINTS",
    "AvailabilityPhase",
    "AvailabilityReport",
    "CrashPointResult",
    "run_availability_campaign",
]
