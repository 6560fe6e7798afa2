"""Replica scaling benchmark: read throughput grows, write throughput doesn't.

The claim a replica tier must demonstrate: read-only service capacity
scales with the number of replicas, while the read-write path — which still
funnels through the one primary — is unaffected.  Each replica is modeled
as a single-server FIFO queue on the virtual clock (one snapshot read costs
``service_time``), because that is the resource replication multiplies; a
fixed reader fleet (:data:`READERS`) large enough to saturate one replica
is load-balanced round-robin across however many exist, and a fixed writer
population (:data:`WRITERS`) runs against the primary throughout.

Everything runs from one master seed on the simulator, so the artifact
block is deterministic and comparator-safe (top-level, like ``qos``).
"""

from __future__ import annotations

from typing import Any

from repro.distributed.courier import Courier
from repro.faults.campaign import PhaseRun, rw_attempt
from repro.replica.cluster import ReplicaCluster
from repro.replica.quorum import ReplicationMode
from repro.sim.engine import closed_loop
from repro.sim.server import FifoServer
from repro.sim.stats import nearest_rank

#: Acceptance floor: RO ops/s at 4 replicas over RO ops/s at 1 replica.
RO_SPEEDUP_FLOOR = 2.0
#: RW throughput at 4 replicas must stay within this factor of 1 replica.
RW_TOLERANCE = 0.15
#: Quorum commit latency must exceed async by at least the shipping round
#: trip (async acknowledges locally; quorum waits for a majority ack).
QUORUM_LATENCY_FLOOR = 1.0
#: Quorum RW throughput floor relative to async under an open-loop-ish
#: writer population: the round trip adds latency but pipelines, so
#: throughput must not collapse.
QUORUM_THROUGHPUT_FLOOR = 0.4

#: The scaling fleet: replica counts measured, reader and writer clients,
#: and the virtual time one snapshot read holds a replica.
REPLICA_COUNTS = (1, 2, 4)
READERS = 32
WRITERS = 6
SERVICE_TIME = 0.5
#: The sync comparison: writer clients, replicas, courier latency per hop.
SYNC_WRITERS = 6
SYNC_REPLICAS = 3
SYNC_LATENCY = 0.5
#: Every point's writers (and readers) draw from keys ``k0..k7``.
KEYS = tuple(f"k{i}" for i in range(8))


def _run_scale_point(seed: int, n_replicas: int, duration: float) -> dict[str, Any]:
    run = PhaseRun(seed)
    sim, streams = run.sim, run.streams
    cluster = ReplicaCluster(
        n_replicas=n_replicas, courier=Courier(sim=sim, latency=0.5)
    )
    # Each replica's serving capacity: one snapshot read at a time.
    servers = {rid: FifoServer(sim, SERVICE_TIME) for rid in cluster.replicas}
    tallies = {"ro_reads": 0, "ro_sessions": 0, "rw_commits": 0, "rw_aborts": 0}

    def writer(i: int):
        rng = streams.stream(f"bench.writer-{i}")
        db = cluster.primary

        def once():
            txn = db.begin()
            error = yield from rw_attempt(
                db, txn, rng.sample(KEYS, 2), service=lambda: rng.expovariate(2.0)
            )
            tallies["rw_commits" if error is None else "rw_aborts"] += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(1.0), once)

    def reader(i: int):
        rng = streams.stream(f"bench.reader-{i}")

        def once():
            replica = cluster.pick_replica()
            assert replica is not None
            server = servers[replica.replica_id]
            txn = replica.begin(read_only=True)
            for key in rng.sample(KEYS, 3):
                yield server.submit()  # queue for the replica's capacity
                replica.read(txn, key).result()
                tallies["ro_reads"] += 1
            replica.commit(txn).result()
            tallies["ro_sessions"] += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(1.0), once)

    run.spawn("writer", WRITERS, writer)
    run.spawn("reader", READERS, reader)
    sim.run()

    return {
        "replicas": n_replicas,
        "ro_ops_per_s": round(tallies["ro_reads"] / duration, 4),
        "ro_sessions_per_s": round(tallies["ro_sessions"] / duration, 4),
        "rw_commits_per_s": round(tallies["rw_commits"] / duration, 4),
        "rw_aborts": tallies["rw_aborts"],
        "max_lag_txns": cluster.max_lag_txns(),
        "events": sim.events_dispatched,
    }


def run_replica_scaling(seed: int = 0, *, duration: float = 200.0) -> dict[str, Any]:
    """Measure RO/RW throughput across replica counts; returns the block.

    The reader fleet's offered load (~``READERS * 3 / (think + queueing)``
    reads per time unit) well exceeds one replica's capacity
    (``1 / SERVICE_TIME``), so a single replica saturates and added
    replicas convert directly into read throughput.  The writer population
    never touches the replica tier, so its commit rate must stay flat
    within :data:`RW_TOLERANCE`.
    """
    points = {n: _run_scale_point(seed, n, duration) for n in REPLICA_COUNTS}
    low, high = min(REPLICA_COUNTS), max(REPLICA_COUNTS)
    base_ro = points[low]["ro_ops_per_s"]
    base_rw = points[low]["rw_commits_per_s"]
    speedup = points[high]["ro_ops_per_s"] / base_ro if base_ro else 0.0
    rw_ratio = points[high]["rw_commits_per_s"] / base_rw if base_rw else 0.0
    violations = []
    if speedup < RO_SPEEDUP_FLOOR:
        violations.append(
            f"RO speedup {speedup:.2f}x from {low} to {high} replicas "
            f"below the {RO_SPEEDUP_FLOOR}x floor"
        )
    if abs(rw_ratio - 1.0) > RW_TOLERANCE:
        violations.append(
            f"RW throughput moved {rw_ratio:.2f}x from {low} to {high} "
            f"replicas (tolerance {RW_TOLERANCE:.0%})"
        )
    return {
        "seed": seed,
        "duration": duration,
        "readers": READERS,
        "writers": WRITERS,
        "service_time": SERVICE_TIME,
        "scaling": {str(n): points[n] for n in REPLICA_COUNTS},
        "ro_speedup": round(speedup, 4),
        "rw_ratio": round(rw_ratio, 4),
        "ok": not violations,
        "violations": violations,
    }


def _run_sync_point(seed: int, mode: ReplicationMode, duration: float) -> dict[str, Any]:
    """One mode's RW cost: commit latency distribution and throughput.

    Same seed and workload for both modes, so the only difference between
    the two points is where the acknowledgement happens: the local
    ``force()`` (async) or the majority ship ack (quorum).
    """
    run = PhaseRun(seed)
    sim, streams = run.sim, run.streams
    cluster = ReplicaCluster(
        n_replicas=SYNC_REPLICAS,
        courier=Courier(sim=sim, latency=SYNC_LATENCY),
        mode=mode,
    )
    tallies = {"rw_commits": 0, "rw_aborts": 0}
    latencies: list[float] = []

    def writer(i: int):
        rng = streams.stream(f"bench.sync-writer-{i}")
        db = cluster.primary

        def once():
            txn = db.begin()

            def timed_commit():
                submitted = sim.now
                yield db.commit(txn)
                latencies.append(sim.now - submitted)

            error = yield from rw_attempt(
                db, txn, rng.sample(KEYS, 2),
                service=lambda: rng.expovariate(2.0), commit=timed_commit,
            )
            tallies["rw_commits" if error is None else "rw_aborts"] += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(1.0), once)

    run.spawn("writer", SYNC_WRITERS, writer)
    sim.run()

    return {
        "mode": mode.value,
        "rw_commits_per_s": round(tallies["rw_commits"] / duration, 4),
        "rw_aborts": tallies["rw_aborts"],
        "commit_p50": round(nearest_rank(latencies, 0.50), 4),
        "commit_p95": round(nearest_rank(latencies, 0.95), 4),
        "quorum_indeterminate": cluster.counters.get("quorum.indeterminate"),
        "quorum_fenced": cluster.counters.get("quorum.fenced"),
        "events": sim.events_dispatched,
    }


def run_replica_sync(seed: int = 0, *, duration: float = 200.0) -> dict[str, Any]:
    """Async vs quorum RW cost under an identical workload; returns the block.

    The durability trade, quantified: quorum acknowledgement buys RPO=0 at
    the price of one shipping round trip per commit (≥ ``2 * SYNC_LATENCY``) on
    the acknowledgement path, while throughput — the pipeline is not
    stalled, commits overlap — must stay within
    :data:`QUORUM_THROUGHPUT_FLOOR` of async.  A clean network, so quorum
    mode must neither fence nor time out a single commit.
    """
    points = {
        mode.value: _run_sync_point(seed, mode, duration)
        for mode in (ReplicationMode.ASYNC, ReplicationMode.QUORUM)
    }
    async_point, quorum_point = points["async"], points["quorum"]
    latency_delta = quorum_point["commit_p50"] - async_point["commit_p50"]
    throughput_ratio = (
        quorum_point["rw_commits_per_s"] / async_point["rw_commits_per_s"]
        if async_point["rw_commits_per_s"]
        else 0.0
    )
    violations = []
    if not async_point["rw_commits_per_s"] or not quorum_point["rw_commits_per_s"]:
        violations.append("a sync point ran dry: no commits measured")
    min_delta = QUORUM_LATENCY_FLOOR * 2 * SYNC_LATENCY
    if latency_delta < min_delta:
        violations.append(
            f"quorum commit p50 only {latency_delta:.3f} above async "
            f"(expected >= the {min_delta:.3f} shipping round trip)"
        )
    if throughput_ratio < QUORUM_THROUGHPUT_FLOOR:
        violations.append(
            f"quorum RW throughput {throughput_ratio:.2f}x of async, below "
            f"the {QUORUM_THROUGHPUT_FLOOR}x floor"
        )
    if quorum_point["quorum_indeterminate"] or quorum_point["quorum_fenced"]:
        violations.append(
            f"quorum mode degraded on a clean network: "
            f"{quorum_point['quorum_indeterminate']} indeterminate, "
            f"{quorum_point['quorum_fenced']} fenced"
        )
    return {
        "seed": seed,
        "duration": duration,
        "writers": SYNC_WRITERS,
        "n_replicas": SYNC_REPLICAS,
        "latency": SYNC_LATENCY,
        "modes": points,
        "commit_p50_delta": round(latency_delta, 4),
        "quorum_throughput_ratio": round(throughput_ratio, 4),
        "ok": not violations,
        "violations": violations,
    }
