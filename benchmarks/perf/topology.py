"""Builds each topology and the closed-loop clients that drive it.

The driver reaches the system only through its public entry points
(``spec.DRIVER_ENTRY_POINTS``) and the ``begin/read/write/commit/abort``
scheduler interface; everything it reads afterwards (counters, chain
statistics, log sizes) is a public attribute or method of those objects.

Closed loop: a client issues its next transaction only after the previous
one committed or was abandoned, so a slower system receives less load.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable

from repro.distributed.courier import Courier
from repro.distributed.database import DistributedVCDatabase
from repro.errors import TransactionAborted, VersionNotFound, is_retryable
from repro.obs.pipeline import ObsPipeline
from repro.obs.slo import SLOEngine, bench_objectives
from repro.obs.witness import WitnessEngine
from repro.protocols.registry import make_scheduler
from repro.replica.cluster import ReplicaCluster
from repro.replica.quorum import ReplicationMode
from repro.shard.database import ShardedDatabase
from repro.sim.engine import Simulator

from .loadgen import TxnScript, generate
from .spec import Workload

#: An attempt that aborts is restarted at most this many times.
MAX_RESTARTS = 50


class Tally:
    """What the clients saw: the source of every vt end-to-end metric."""

    def __init__(self, audit: bool = False) -> None:
        #: Verify pass only: also collect what the output checks need.
        self.audit = audit
        self.commits = 0  # RO + RW, cumulative (the slice loop reads deltas)
        self.issued = 0
        self.attempts = 0
        self.aborts = 0
        self.failed = 0
        self.ran_dry = 0
        #: (finish vt, latency) per committed transaction, by class.
        self.ro: list[tuple[float, float]] = []
        self.rw: list[tuple[float, float]] = []
        #: (finish vt, commit-call-to-ack vt) per committed RW transaction.
        self.rw_ack: list[tuple[float, float]] = []
        #: (begin vt, visibility lag seen) per read-only begin.
        self.staleness: list[tuple[float, float]] = []
        #: Committed replica reads to audit: (key, sn, version tn).
        self.replica_reads: list[tuple[str, int, int]] = []
        #: Torn cross-shard entries any vector snapshot exposed (must stay empty).
        self.torn_snapshots = 0


@dataclasses.dataclass
class Topology:
    workload: Workload
    sim: Simulator
    tally: Tally
    db: Any  # what read-write (and mixed) clients drive
    pick_reader: Callable[[], Any]  # what a dedicated reader drives next
    schedulers: list[Any]  # objects carrying .counters (merged for the checks)
    stores: list[Any]
    wals: list[Any]
    cluster: Any = None
    pipeline: Any = None
    courier: Any = None
    staleness: Callable[[Any, Any], float] = lambda db, txn: 0.0

    def counters(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for owner in self.schedulers:
            for name, value in owner.counters.as_dict().items():
                merged[name] = merged.get(name, 0) + value
        return merged


def build(workload: Workload, seed: int, vt_span: float, audit: bool = False) -> Topology:
    """Topology + spawned clients for a pass of ``vt_span`` virtual time.

    ``audit`` (verify pass only) makes the clients also collect what the
    output checks need; it stays off in timed passes.
    """
    tally = Tally(audit)
    shard_of = None
    pipeline = None
    if workload.topology == "single":
        sim = Simulator()
        db = make_scheduler("vc-2pl-wal")
        if workload.observed:
            engine = SLOEngine(bench_objectives(ro_never_blocks=True), window=vt_span / 16.0)
            pipeline = ObsPipeline(
                sim=sim, ring=65_536, engine=engine, witness=WitnessEngine(seal=True)
            )
            sim.tracer = pipeline.tracer
            pipeline.attach(db)
        topo = Topology(
            workload, sim, tally, db, lambda: db, [db], [db.store], [db.log],
            pipeline=pipeline,
            staleness=lambda _db, txn: txn.meta.get("qos.staleness", 0),
        )
    elif workload.topology == "dist":
        sim = Simulator()
        db = DistributedVCDatabase(
            n_sites=3, courier=Courier(sim=sim, latency=workload.courier_latency)
        )
        sites = list(db.sites.values())
        topo = Topology(
            workload, sim, tally, db, lambda: db, [db],
            [s.store for s in sites], [s.wal for s in sites],
            staleness=lambda _db, txn: txn.meta.get("qos.staleness", 0),
            courier=db.courier,
        )
    elif workload.topology == "replica":
        sim = Simulator()
        cluster = ReplicaCluster(
            n_replicas=3,
            courier=Courier(sim=sim, latency=workload.courier_latency),
            mode=ReplicationMode.QUORUM,
        )
        db = cluster.primary
        replicas = list(cluster.replicas.values())
        topo = Topology(
            workload, sim, tally, db, cluster.pick_replica,
            [db, cluster, *replicas],
            [db.store, *(r.store for r in replicas)],
            [cluster.log, *(r.log for r in replicas)],
            cluster=cluster,
            courier=cluster.courier,
            # Ground truth, not the replica's own bound: numbers the primary
            # has assigned that this snapshot cannot see.
            staleness=lambda _db, txn: db.vc.tnc - 1 - txn.sn,
        )
    elif workload.topology == "shard":
        sim = Simulator()
        db = ShardedDatabase(
            n_shards=4, courier=Courier(sim=sim, latency=workload.courier_latency)
        )
        sites = list(db.sites.values())
        shard_of = lambda key: db.site_of_key(key).site_id
        topo = Topology(
            workload, sim, tally, db, lambda: db, [db],
            [s.store for s in sites], [s.wal for s in sites],
            staleness=lambda _db, txn: txn.meta.get("shard.staleness", 0),
            courier=db.courier,
        )
    else:
        raise ValueError(f"unknown topology {workload.topology!r}")

    clients, readers = generate(workload, seed, vt_span, shard_of)
    for i, script in enumerate(clients):
        sim.spawn(_client(topo, script, lambda: db, vt_span, i), name=f"client-{i}")
    for i, script in enumerate(readers):
        sim.spawn(
            _client(topo, script, topo.pick_reader, vt_span, 1000 + i), name=f"reader-{i}"
        )
    if workload.gc_period > 0:
        sim.spawn(_collector(sim, db.gc, workload.gc_period, vt_span), name="gc")
    return topo


def _collector(sim: Simulator, gc: Any, period: float, vt_span: float):
    while sim.now < vt_span:
        yield period
        gc.collect()


def _client(
    topo: Topology,
    script: Iterable[TxnScript],
    pick: Callable[[], Any],
    vt_span: float,
    client_id: int,
):
    """One closed-loop client: think, run the scripted transaction, restart
    on a retryable abort, stop issuing at ``vt_span``."""
    sim, tally = topo.sim, topo.tally
    staleness = topo.staleness
    audit_shard = tally.audit and topo.workload.topology == "shard"
    audit_replica = tally.audit and topo.workload.topology == "replica"
    seq = 0
    for think, read_only, ops in script:
        yield think
        if sim.now >= vt_span:
            return
        tally.issued += 1
        for attempt in range(MAX_RESTARTS + 1):
            db = pick()
            tally.attempts += 1
            start = sim.now
            txn = db.begin(read_only=read_only)
            if read_only:
                tally.staleness.append((start, staleness(db, txn)))
                if audit_shard and db.snapshot_audit(txn):
                    tally.torn_snapshots += 1
            try:
                for kind, key, service in ops:
                    yield service
                    if kind == "r":
                        yield db.read(txn, key)
                    else:
                        seq += 1
                        yield db.write(txn, key, (client_id, seq))
                called = sim.now
                yield db.commit(txn)
            except (TransactionAborted, VersionNotFound) as error:
                db.abort(txn)
                tally.aborts += 1
                if not is_retryable(error) or attempt == MAX_RESTARTS:
                    tally.failed += 1
                    break
                # Exponential back-off, scripted like everything else: the
                # transaction's own think time plus a floor, doubled per attempt.
                yield (1.0 + think) * (1 << min(attempt, 6))
                continue
            now = sim.now
            tally.commits += 1
            if read_only:
                tally.ro.append((now, now - start))
                if audit_replica:
                    sn = txn.sn
                    tally.replica_reads.extend(
                        (key, sn, tn) for key, tn in txn.read_set.items()
                    )
            else:
                tally.rw.append((now, now - start))
                tally.rw_ack.append((now, now - called))
            break
    tally.ran_dry += 1
