"""Shard scaling benchmark: read-write throughput grows with shard count.

The claim the sharded layer must demonstrate — the inverse of the replica
bench: *write* capacity scales with the number of primary shards, because
disjoint-key transactions on different shards share nothing (no global
``tnc``, no shared lock table, no cross-shard messages on the fast path).
Each shard's commit pipeline is modeled as a single-server FIFO queue on
the virtual clock (one commit costs ``service_time`` — the WAL force and
VC work a real primary serializes), exactly like the replica bench models
read capacity; a writer fleet large enough to saturate one shard is pinned
round-robin across however many exist, each writer on private keys hashed
to its own shard.  Doubling the shards doubles the commit servers, so the
closed-loop throughput must follow — the acceptance floors are
:data:`SCALE_2X_FLOOR` at 2 shards and :data:`SCALE_4X_FLOOR` at 4.

A small read-only fleet runs vector snapshots throughout, verifying the
zero-coordination claim from the read side: RO sessions must neither stall
(``shard.ro_blocked`` stays 0) nor perturb the write scaling.

Everything runs from one master seed on the simulator, so the artifact
block is deterministic and comparator-safe (top-level, like ``replica``).
"""

from __future__ import annotations

from typing import Any

from repro.distributed.courier import Courier
from repro.errors import TransactionAborted, VersionNotFound
from repro.faults.campaign import PhaseRun, closed_loop, increment
from repro.shard.campaign import pinned_keys
from repro.shard.database import ShardedDatabase
from repro.sim.server import FifoServer

#: Acceptance floor: RW ops/s at 2 shards over RW ops/s at 1 shard.
SCALE_2X_FLOOR = 1.7
#: Acceptance floor: RW ops/s at 4 shards over RW ops/s at 1 shard.
SCALE_4X_FLOOR = 3.0


def _run_scale_point(
    seed: int,
    n_shards: int,
    *,
    duration: float,
    writers: int,
    readers: int,
    service_time: float,
    keys_per_writer: int = 4,
) -> dict[str, Any]:
    run = PhaseRun(seed)
    sim, streams = run.sim, run.streams
    db = ShardedDatabase(n_shards=n_shards, courier=Courier(sim=sim, latency=0.5))
    # Each shard's commit capacity: one commit at a time.
    servers = {sid: FifoServer(sim, service_time) for sid in db.sites}
    home, keys = pinned_keys(n_shards, writers, keys_per_writer)
    tallies = {
        "rw_commits": 0, "rw_aborts": 0, "ro_sessions": 0, "ro_reads": 0,
    }

    def writer(i: int):
        rng = streams.stream(f"bench.shard-writer-{i}")
        sid = home[i]

        def once():
            txn = db.begin()
            try:
                yield from increment(
                    db, txn, rng.sample(keys[i], 2),
                    service=lambda: rng.expovariate(2.0),
                )
                yield servers[sid].submit()  # the shard's commit turn
                yield db.commit(txn)
                tallies["rw_commits"] += 1
            except TransactionAborted:
                if txn.is_active:
                    db.abort(txn)
                tallies["rw_aborts"] += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(2.0), once)

    def reader(i: int):
        rng = streams.stream(f"bench.shard-reader-{i}")

        def once():
            ro = db.begin(read_only=True)
            for _ in range(2):
                target = rng.randrange(writers)
                try:
                    yield db.read(ro, keys[target][0])
                    tallies["ro_reads"] += 1
                except VersionNotFound:
                    pass  # the writer has not created the key yet
            db.commit(ro).result()
            tallies["ro_sessions"] += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(0.5), once)

    run.spawn("writer", writers, writer)
    run.spawn("reader", readers, reader)
    sim.run()

    return {
        "shards": n_shards,
        "rw_commits_per_s": round(tallies["rw_commits"] / duration, 4),
        "rw_aborts": tallies["rw_aborts"],
        "ro_sessions_per_s": round(tallies["ro_sessions"] / duration, 4),
        "ro_reads": tallies["ro_reads"],
        "fast_commits": db.counters.get("shard.fast_commits"),
        "cross_commits": db.counters.get("shard.cross_commits"),
        "ro_blocked": db.counters.get("shard.ro_blocked"),
        "events": sim.events_dispatched,
    }


def run_shard_scaling(
    seed: int = 0,
    *,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    duration: float = 160.0,
    writers: int = 56,
    readers: int = 4,
    service_time: float = 0.5,
) -> dict[str, Any]:
    """Measure RW throughput across shard counts; returns the bench block.

    The writer fleet's offered load well exceeds one shard's commit
    capacity (``1 / service_time``), so a single shard saturates and added
    shards convert directly into write throughput — the multi-primary
    claim.  Every workload transaction is single-shard (disjoint pinned
    keys), i.e. the pure scale-out case the acceptance floors govern;
    vector RO sessions ride along and must never block
    (``shard.ro_blocked == 0``).
    """
    points = {
        n: _run_scale_point(
            seed,
            n,
            duration=duration,
            writers=writers,
            readers=readers,
            service_time=service_time,
        )
        for n in shard_counts
    }
    low = min(shard_counts)
    base_rw = points[low]["rw_commits_per_s"]
    speedups = {
        n: (points[n]["rw_commits_per_s"] / base_rw if base_rw else 0.0)
        for n in shard_counts
    }
    violations = []
    floors = {2: SCALE_2X_FLOOR, 4: SCALE_4X_FLOOR}
    for n, floor in floors.items():
        if n in points and speedups[n] < floor:
            violations.append(
                f"RW speedup {speedups[n]:.2f}x at {n} shards below the "
                f"{floor}x floor"
            )
    blocked = sum(points[n]["ro_blocked"] for n in shard_counts)
    if blocked:
        violations.append(
            f"{blocked} vector reads blocked on a shard watermark "
            "(the zero-coordination claim)"
        )
    return {
        "seed": seed,
        "duration": duration,
        "writers": writers,
        "readers": readers,
        "service_time": service_time,
        "scaling": {str(n): points[n] for n in shard_counts},
        "speedups": {str(n): round(speedups[n], 4) for n in shard_counts},
        "ok": not violations,
        "violations": violations,
    }
