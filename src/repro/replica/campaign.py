"""Seeded replication campaign: snapshot consistency under network faults.

One campaign runs a writer population against the primary and a reader
population whose snapshots route through :class:`ReplicatedDatabase` to the
replica tier, while a :class:`~repro.faults.FaultyCourier` corrupts the
shipping channels per a seeded spec — drops, duplicates, delay spikes, and
per-replica partition windows derived from the master seed.  Half-way
through (unless ``promote`` is off) the primary fail-stops and the most
advanced replica is promoted through the recovery path.

Checked throughout and at the end:

* **snapshot consistency** — no read-only transaction ever observes a
  version whose creator ``tn`` exceeds its snapshot number (``sn =
  vtnc_replica`` at begin), i.e. no replica serves above its watermark;
* **monotone watermarks** — every replica's ``vtnc`` only advances, and
  never exceeds the primary's;
* **convergence** — after the run drains and shipping catches up, every
  replica's committed store state equals the (current) primary's, and the
  watermarks meet the primary's ``vtnc``;
* **determinism** — a second run from the same seed produces an identical
  fingerprint (commit/read tallies, event count, final watermarks, and a
  hash of the converged store).

``python -m repro drill --campaign replication`` sweeps seeds through this;
the bench artifact's ``replica`` block uses the scaling benchmark in
:mod:`repro.replica.bench` instead.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from repro.faults.campaign import (
    Campaign,
    CampaignCLI,
    CampaignPhase,
    CampaignReport,
    PhaseRun,
    acked_commit,
    cli_spec,
    rw_attempt,
    spec_text,
)
from repro.faults.courier import RetryPolicy
from repro.faults.schedule import FaultSpec, PartitionWindow
from repro.replica.cluster import ReplicaCluster
from repro.replica.session import ReplicatedDatabase
from repro.sim.engine import closed_loop
from repro.sim.random_streams import RandomStreams
from repro.sim.stats import Summary

#: Fault mix for the replication drill: noticeably lossy shipping channels.
REPLICATION_SPEC = FaultSpec(drop=0.10, duplicate=0.08, delay_spike=0.08)

#: Writers on the primary, and snapshot readers routed to the replicas.
WRITERS = 4
READERS = 6
#: Commits a served snapshot may trail the primary by before the session
#: redirects it.
MAX_STALENESS = 8


@dataclass
class ReplicationPhase(CampaignPhase):
    """What one seeded run observed."""

    rw_commits: int = 0
    rw_aborts: int = 0
    ro_commits: int = 0
    ro_reads: int = 0
    ro_served: int = 0
    ro_redirects: int = 0
    ro_stale: int = 0
    max_lag_txns: int = 0
    staleness: Summary = field(default_factory=Summary)
    promoted_replica: int | None = None
    #: Transactions acknowledged to a session but absent from the promoted
    #: primary at fail-over — the measured RPO.  None until a promotion
    #: happens.  Async mode loses exactly the replication lag; quorum mode
    #: must measure 0 (its acknowledged commits are majority-durable).
    rpo_txns: int | None = None
    #: Watermark lag ``old_vtnc - promoted_vtnc`` at the fail-over moment.
    failover_lag_txns: int | None = None
    final_vtncs: tuple = ()
    primary_vtnc: int = 0
    store_fingerprint: int = 0
    faults: dict[str, int] = field(default_factory=dict)
    messages: int = 0


@dataclass(kw_only=True)
class ReplicationReport(CampaignReport):
    """Outcome of one seeded replication campaign."""

    DERIVED = ("staleness_max",)

    n_replicas: int
    writers: int = WRITERS
    readers: int = READERS
    promote: bool
    phase: ReplicationPhase
    mode: str = "async"
    faults: dict[str, int] = field(default_factory=dict)
    messages: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        self.faults = dict(self.phase.faults)
        self.messages = self.phase.messages

    @property
    def staleness_max(self) -> float:
        return self.phase.staleness.maximum

    def row(self) -> str:
        phase = self.phase
        return (
            f"rw={phase.rw_commits:<4d} ro={phase.ro_commits:<5d} "
            f"lag_max={phase.max_lag_txns:<3d} "
            f"redirects={phase.ro_redirects:<4d} "
            f"promoted=r{phase.promoted_replica or '-'} "
            f"rpo={phase.rpo_txns if phase.rpo_txns is not None else '-'} "
            f"drops={self.faults.get('drops', 0):<3d} "
            f"parked={self.faults.get('partition_deferrals', 0)}"
            + self.witness_tag()
        )


def _committed_dump(store) -> dict:
    """Committed versions with tn > 0 — the replicated portion of a store.

    The initial version 0 of every object exists implicitly on each copy
    (the primary materializes it lazily on first touch, replicas on first
    applied write), so only shipped versions participate in convergence.
    """
    dump: dict = {}
    for key in store.keys():
        chain = [
            (v.tn, v.value)
            for v in store.object(key).versions()
            if v.tn > 0 and not v.pending
        ]
        if chain:
            dump[key] = tuple(chain)
    return dump


def _dump_fingerprint(dump: dict) -> int:
    payload = repr(sorted(dump.items(), key=lambda item: repr(item[0])))
    return zlib.crc32(payload.encode("utf-8"))


def _partition_windows(
    streams: RandomStreams, duration: float, n_replicas: int
) -> tuple[PartitionWindow, ...]:
    """Seed-derived partition windows over the shipping channels.

    Each replica's ``ship.<rid>`` channel gets (with high probability) one
    outage somewhere in the first two-thirds of the run, healing well
    before the end so convergence is reachable.
    """
    rng = streams.stream("replica.partitions")
    windows = []
    for rid in range(1, n_replicas + 1):
        if rng.random() < 0.85:
            start = rng.uniform(0.15, 0.45) * duration
            length = rng.uniform(0.05, 0.20) * duration
            windows.append(PartitionWindow(f"ship.{rid}", start, start + length))
    return tuple(windows)


def _run_phase(
    seed: int,
    *,
    duration: float,
    n_replicas: int,
    spec: FaultSpec,
    mode: str,
    promote: bool,
    engine: Any | None = None,
    witness: Any | None = None,
) -> ReplicationPhase:
    """One seeded run; with ``promote`` the primary fail-stops at
    ``0.55 * duration``.  ``engine`` is an optional
    :class:`~repro.obs.slo.SLOEngine` — and ``witness`` an optional
    :class:`~repro.obs.witness.WitnessEngine` — fed online through an
    :class:`~repro.obs.ObsPipeline` attached to the cluster."""
    run = PhaseRun(seed, engine=engine, witness=witness)
    sim, streams, tracer = run.sim, run.streams, run.tracer
    windows = _partition_windows(streams, duration, n_replicas)
    courier = run.courier(
        2.0,
        spec=replace(spec, partitions=spec.partitions + windows),
        retry=RetryPolicy(max_attempts=6, base=0.5, cap=10.0),
    )
    cluster = ReplicaCluster(n_replicas=n_replicas, courier=courier, mode=mode)
    run.pipeline.attach(cluster)
    session = ReplicatedDatabase(
        cluster, max_staleness=MAX_STALENESS, stale_policy="redirect"
    )
    stats = ReplicationPhase()
    keys = [f"k{i}" for i in range(8)]
    last_vtnc: dict[int, int] = {rid: 0 for rid in cluster.replicas}
    #: Transaction numbers whose commit future resolved successfully — the
    #: set the durability promise is *about*.  In async mode resolution is
    #: the local force; in quorum mode it is the majority ack.
    acked_tns: set[int] = set()

    def check_watermarks() -> None:
        # In quorum mode the primary defers its own visibility advance
        # (vc_complete) until the majority ack, so a replica that already
        # applied the shipped COMMIT record legitimately sits above the
        # primary's vtnc for a beat; the ceiling there is the assigned-tn
        # frontier (every shipped COMMIT carries a registered tn <= tnc).
        primary_vtnc = cluster.primary.vc.vtnc
        ceiling = (
            primary_vtnc if mode == "async" else cluster.primary.vc.tnc
        )
        for rid, replica in cluster.replicas.items():
            prev = last_vtnc.get(rid, 0)
            if replica.vtnc < prev:
                stats.violations.append(
                    f"replica {rid} watermark regressed {prev} -> {replica.vtnc}"
                )
            last_vtnc[rid] = replica.vtnc
            if replica.vtnc > ceiling:
                stats.violations.append(
                    f"replica {rid} watermark {replica.vtnc} above primary "
                    f"frontier {ceiling}"
                )
            lag = cluster.lag_txns(replica)
            if lag > stats.max_lag_txns:
                stats.max_lag_txns = lag
            if tracer.enabled:
                # Primary-measured watermark lag: the anomaly signal the
                # replica_lag watchdog watches.  (The replica's own
                # staleness_bound freezes during a full partition — it
                # hears nothing — so only this primary-side view spikes.)
                tracer.emit("replica.lag", rid, lag)
        for rid in list(last_vtnc):
            if rid not in cluster.replicas:
                del last_vtnc[rid]  # promoted out of the replica set

    def writer(i: int):
        rng = streams.stream(f"replica.writer-{i}")

        def once():
            db = cluster.primary  # re-fetch: survives a fail-over
            txn = db.begin()

            def commit():
                yield acked_commit(db, txn, acked_tns.add)

            error = yield from rw_attempt(
                db, txn, rng.sample(keys, 2),
                service=lambda: rng.expovariate(2.0), commit=commit,
            )
            if error is None:
                stats.rw_commits += 1
            else:
                stats.rw_aborts += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(0.5), once)

    def reader(i: int):
        rng = streams.stream(f"replica.reader-{i}")

        def once():
            with session.snapshot() as snap:
                staleness = snap.staleness
                if staleness is not None:
                    stats.staleness.add(staleness)
                for key in rng.sample(keys, 3):
                    snap.read(key)
                    stats.ro_reads += 1
                # The invariant under test: no read above the snapshot,
                # hence never above the serving replica's watermark.
                for key, tn in snap.txn.read_set.items():
                    if tn is not None and snap.txn.sn is not None:
                        if tn > snap.txn.sn:
                            stats.violations.append(
                                f"read of tn {tn} above sn {snap.txn.sn} "
                                f"(key {key!r})"
                            )
            stats.ro_commits += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(1.0), once)

    def watcher():
        while sim.now < duration:
            yield duration / 50.0
            check_watermarks()

    def promoter():
        yield 0.55 * duration
        promoted = cluster.fail_over()
        stats.promoted_replica = promoted.replica_id
        # The measured RPO: commits acknowledged to a session whose tn the
        # promoted primary does not cover.  (Post-promotion tns restart
        # above promoted_vtnc, so this is computed exactly once, here.)
        promoted_vtnc = cluster.last_failover["promoted_vtnc"]
        stats.rpo_txns = sum(1 for tn in acked_tns if tn > promoted_vtnc)
        stats.failover_lag_txns = cluster.last_failover["lag_txns"]
        check_watermarks()

    run.spawn("writer", WRITERS, writer)
    run.spawn("reader", READERS, reader)
    sim.spawn(watcher(), name="watermark-watcher")
    if promote:
        sim.spawn(promoter(), name="promoter")
    sim.run()

    run.quiesce(
        [cluster.shipper],
        lambda: all(cluster.lag_records(r) == 0 for r in cluster.replicas.values()),
    )
    check_watermarks()

    stats.primary_vtnc = cluster.primary.vc.vtnc
    stats.final_vtncs = tuple(
        cluster.replicas[rid].vtnc for rid in sorted(cluster.replicas)
    )
    counters = cluster.counters
    stats.ro_served = counters.get("replica.ro.served")
    stats.ro_redirects = counters.get("replica.ro.redirect")
    stats.ro_stale = counters.get("replica.ro.stale")

    # Convergence: every replica's committed state equals the primary's.
    primary_dump = _committed_dump(cluster.primary.store)
    stats.store_fingerprint = _dump_fingerprint(primary_dump)
    for rid in sorted(cluster.replicas):
        replica = cluster.replicas[rid]
        if _committed_dump(replica.store) != primary_dump:
            stats.violations.append(
                f"replica {rid} store diverged from primary after healing"
            )
        if replica.vtnc != cluster.primary.vc.vtnc:
            stats.violations.append(
                f"replica {rid} watermark {replica.vtnc} != primary "
                f"{cluster.primary.vc.vtnc} after healing"
            )
    stats.faults = courier.schedule.counts.as_dict()
    stats.messages = courier.delivered
    run.settle(stats)  # detach, finish the engine's last window
    return stats


def _objectives() -> Any:
    from repro.obs.slo import replication_objectives

    return replication_objectives(max_staleness=MAX_STALENESS, writers=WRITERS)


def _checks(report: ReplicationReport) -> Iterable[str]:
    phase = report.phase
    if not phase.rw_commits:
        yield "no read-write commits: workload inert"
    if not phase.ro_commits:
        yield "no read-only commits: replica path inert"
    if not report.promote:
        return
    if phase.promoted_replica is None:
        yield "promotion did not happen"
        return
    # The durability promise, stated as data.  Quorum mode acknowledges
    # only majority-durable commits, so a fail-over may lose *nothing*
    # that was acknowledged (RPO=0).  Async mode acknowledges at the
    # local force, so what it loses is exactly the replication lag.
    if phase.rpo_txns is None:
        yield "promotion happened but RPO not measured"
    elif report.mode == "quorum" and phase.rpo_txns != 0:
        yield (
            f"quorum mode lost {phase.rpo_txns} acknowledged commits "
            "at fail-over (RPO must be 0)"
        )
    elif report.mode == "async" and phase.rpo_txns != phase.failover_lag_txns:
        yield (
            f"async RPO {phase.rpo_txns} != measured replication lag "
            f"{phase.failover_lag_txns} at fail-over"
        )


REPLICATION = Campaign(
    name="replication",
    defaults=dict(
        duration=400.0,
        n_replicas=3,
        spec=REPLICATION_SPEC,
        mode="async",
        promote=True,
    ),
    phase=_run_phase,
    report=ReplicationReport,
    objectives=_objectives,
    checks=_checks,
)


def run_replication_campaign(seed: int = 0, **knobs: Any) -> ReplicationReport:
    """Run one seeded replication campaign and check its guarantees.

    Knobs: ``duration`` (default 400), ``n_replicas`` (3), ``spec``
    (:data:`REPLICATION_SPEC`), ``mode`` (``"async"`` or ``"quorum"``),
    ``promote`` (True) and ``verify_determinism`` (True).

    With ``promote`` the primary fail-stops at ``0.55 * duration`` and the
    most advanced replica takes over through the recovery path.  With
    ``verify_determinism`` the whole run repeats from the same seed and the
    two fingerprints must match.

    An :class:`~repro.obs.slo.SLOEngine` rides the run, evaluating the
    staleness objectives online: the hard bound on what served snapshots
    may observe, zero RO blocking, and the ``replica_lag`` anomaly
    watchdog whose breaches during injected partition windows are
    *expected* (they trigger the flight recorder — the bundle captures the
    partition that caused them — without failing the campaign).  The
    verdict lands in ``report.slo``; under ``verify_determinism`` the
    replay carries a fresh engine and both verdict blocks must compare
    equal.

    A sealing :class:`~repro.obs.witness.WitnessEngine` certifies the
    primary's history stream online — across the fail-over, whose
    ``replica.promote`` event retires the promoted replica's watermark from
    the sealing floor — and an MVSG cycle (or a tainted seal) is a
    campaign violation.
    """
    return REPLICATION.run(seed, **knobs)


CLI = CampaignCLI(
    run=run_replication_campaign,
    flags=("replicas", "no_promote", "mode", "drop", "duplicate", "delay_spike"),
    knobs=lambda args: dict(
        n_replicas=args.replicas,
        spec=cli_spec(args, REPLICATION_SPEC),
        mode=args.mode,
        promote=not args.no_promote,
    ),
    banner=lambda args, knobs: (
        f"replication campaign: seeds={args.seeds} replicas={args.replicas} "
        f"duration={args.duration} mode={args.mode} "
        f"{spec_text(knobs['spec'])} promote={knobs['promote']}"
    ),
    minimum={"replicas": 1},
)
