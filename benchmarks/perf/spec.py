"""The benchmark's declarative tables: workloads, metrics, entry points.

Everything another file (``BENCHMARK.json``, the README glossary, the
``--compare`` verdicts, the self-test) says about *what* is measured is a
copy of these tables; ``--selftest`` asserts the copies agree.

Clocks.  Every metric names the clock it is read from:

* ``host`` — what the simulator costs *us* (CPU time of this process,
  normalised by the calibration kernel, or resident memory);
* ``vt``   — what the *modelled* database does, in virtual-time units;
  exact under a seed, so two commits compare with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Calibration-kernel iterations that make up one *cal-second*.
CAL_SECOND_ITERS = 1_000_000

#: Sentinel for a per-layer metric whose wrap target no longer resolves
#: (the driver's result line must carry a number for every metric).
UNRESOLVED = -1.0


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the topology that runs them.

    ``clients`` draw read-only transactions with probability
    ``ro_fraction``; ``readers`` are dedicated read-only clients (served by
    replicas on the ``replica`` topology, by vector snapshots on ``shard``).
    ``horizon`` is the measured virtual time of one *pass*, cut into
    ``slices`` equal ``sim.run(until=...)`` steps after ``warmup``.
    """

    name: str
    why: str
    topology: str  # single | dist | replica | shard
    inputs: str  # names the random streams: equal values give equal scripts
    horizon: float
    slices: int
    warmup: float
    clients: int = 8
    readers: int = 0
    n_objects: int = 200
    zipf_theta: float = 0.8
    ro_fraction: float = 0.5
    ro_ops: tuple[int, int] = (2, 6)
    rw_ops: tuple[int, int] = (2, 6)
    write_fraction: float = 0.5
    cross_fraction: float = 0.0  # shard only: share of writer txns spanning shards
    gc_period: float = 0.0  # vt between GC sweeps; 0 = GC off
    courier_latency: float = 0.0
    observed: bool = False  # run under ObsPipeline(ring, SLO engine, witness)
    #: >0: the S1 checker runs inside the timed region, this many bracketed
    #: repeats per untraced pass (a run has three passes or more).
    checker_repeats: int = 0
    #: Length of the traced / verify / profile passes as a share of horizon.
    traced_share: float = 1 / 3
    verify_share: float = 0.12
    profile_share: float = 0.15


_RW = dict(clients=8, n_objects=200, zipf_theta=0.8, ro_fraction=0.5,
           ro_ops=(2, 6), rw_ops=(2, 6), write_fraction=0.5)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "single_rw",
        "reference path on one vc-2pl-wal node: sim, protocols, cc, storage, core and wal all run, none dominates; GC bounds chains",
        "single", "single_rw", horizon=10000.0, slices=240, warmup=400.0, gc_period=200.0, **_RW,
    ),
    Workload(
        "single_ro_scan",
        "85% read-only scans of 8-20 reads over 20 hot objects with GC off, so chains grow to hundreds of versions: snapshot reads and vc_start do the work, cc idles",
        "single", "single_ro_scan", horizon=13200.0, slices=220, warmup=400.0,
        clients=8, n_objects=20, zipf_theta=0.0, ro_fraction=0.85,
        ro_ops=(8, 20), rw_ops=(2, 5), write_fraction=0.9,
    ),
    Workload(
        "single_hot_write",
        "10 objects, 80% read-write at 60% writes: lock waits, deadlock detection, restarts and installs dominate, the storage and cc layers used the opposite way round",
        "single", "single_hot_write", horizon=26400.0, slices=240, warmup=600.0, gc_period=200.0,
        clients=5, n_objects=10, zipf_theta=0.5, ro_fraction=0.2,
        ro_ops=(2, 4), rw_ops=(3, 6), write_fraction=0.6,
    ),
    Workload(
        "dist_2pc",
        "single_rw inputs over 3 sites with 1.0 vt courier hops: message dispatch, 2PC legs and per-site forces dominate, cc and storage shares shrink",
        "dist", "single_rw", horizon=16320.0, slices=240, warmup=400.0, courier_latency=1.0, **_RW,
    ),
    Workload(
        "replica_quorum",
        "quorum-acked primary with 3 log-shipped replicas, 6 writers and 6 replica readers: ship, ack, apply and replica snapshot reads, long enough to show cost growth with log length",
        "replica", "replica_quorum", horizon=9200.0, slices=230, warmup=200.0, courier_latency=0.5,
        clients=6, readers=6, n_objects=200, zipf_theta=0.8, ro_fraction=0.0,
        ro_ops=(2, 6), rw_ops=(2, 6), write_fraction=0.5,
    ),
    Workload(
        "shard_mixed",
        "4 hash shards, 16 writers (1 in 8 transactions cross-shard) and 4 vector-snapshot readers: ring lookups, vector sweep, fast commit and inherited 2PC in one run",
        "shard", "shard_mixed", horizon=5280.0, slices=240, warmup=200.0, courier_latency=0.5,
        clients=16, readers=4, n_objects=200, zipf_theta=0.4, ro_fraction=0.0,
        ro_ops=(2, 6), rw_ops=(2, 6), write_fraction=0.5, cross_fraction=0.125,
    ),
    Workload(
        "single_observed",
        "single_rw inputs under ObsPipeline(ring, SLO engine, sealing witness), what bench --slo and every campaign pay: obs does most of the work, the price of watching",
        "single", "single_rw", horizon=5000.0, slices=200, warmup=200.0, gc_period=200.0,
        observed=True, **_RW,
    ),
    Workload(
        "single_certified",
        "single_rw inputs with check_one_copy_serializable(history) inside the timed region, what soak and stress tests pay: histories.checker dominates and runs nowhere else",
        "single", "single_rw", horizon=4000.0, slices=200, warmup=100.0, gc_period=200.0,
        checker_repeats=2, traced_share=1.0, verify_share=0.3, profile_share=0.4,
        **_RW,
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # higher | lower
    clock: str  # host | vt
    what: str
    bound: float | None = None  # end-to-end only: allowed worsening, share of parent
    moves: str = ""  # per-layer only: the end-to-end metric it should move
    most_on: str = ""  # per-layer only: workload(s) where it is largest


END_TO_END: tuple[Metric, ...] = (
    Metric("commits_per_cal_s", "1/cal-s", "higher", "host",
           "committed transactions (RO+RW) per cal-second: 1e6 / median over slices of slice_ns / slice_commits / kernel_ns_per_iteration",
           bound=0.20),
    Metric("peak_rss_mb", "MB", "lower", "host",
           "child ru_maxrss after an untraced pass, median over passes", bound=0.15),
    Metric("setup_s", "s", "lower", "host",
           "seconds from child start to the first measured slice (interpreter, imports, input generation, topology build, warm-up), rescaled to the calibration kernel's nominal speed, median over passes",
           bound=0.25),
    Metric("sim_throughput_vt", "1/vt", "higher", "vt",
           "commits per virtual-time unit over the measured slices", bound=0.09),
    Metric("sim_rw_p50_vt", "vt", "lower", "vt",
           "median begin-to-commit latency of committed read-write transactions", bound=0.12),
    Metric("sim_rw_p99_vt", "vt", "lower", "vt",
           "p99 of the same (top percentile with >=10 samples beyond it)", bound=0.25),
    Metric("sim_ro_p50_vt", "vt", "lower", "vt",
           "median begin-to-commit latency of committed read-only transactions", bound=0.12),
    Metric("sim_ro_p99_vt", "vt", "lower", "vt", "p99 of the same", bound=0.25),
)

_CPS = "commits_per_cal_s"

PER_LAYER: tuple[Metric, ...] = (
    # -- host: the harness's own ledger ------------------------------------
    Metric("host.commits_per_s_raw", "1/s", "higher", "host",
           "commits per wall second, un-normalised (swings with the box)", moves=_CPS),
    Metric("host.cal_kernel_ms", "ms", "lower", "host",
           "median time of one calibration-kernel run", moves=_CPS),
    Metric("host.noise_cv", "ratio", "lower", "host",
           "coefficient of variation of the kernel time over the pass", moves=_CPS),
    Metric("host.cost_growth_ratio", "ratio", "lower", "host",
           "median per-commit cost of the last quarter of slices over the first quarter (1.0 = linear)",
           moves=_CPS, most_on="replica_quorum, single_ro_scan"),
    Metric("host.py_calls_per_commit", "count", "lower", "host",
           "Python function calls per commit, exact (C-level profile hook on a short pass)", moves=_CPS),
    Metric("host.trace_overhead_ratio", "ratio", "lower", "host",
           "untraced over traced commits_per_cal_s", moves=_CPS),
    # -- vt context that cannot be gated (0 on some workloads) ---------------
    Metric("sim.abort_rate", "ratio", "lower", "vt",
           "aborted attempts / attempts", moves="sim_throughput_vt", most_on="single_hot_write"),
    Metric("sim.ro_staleness_mean", "count", "lower", "vt",
           "mean visibility lag (assigned but invisible transaction numbers) a read-only begin sees",
           moves="sim_ro_p50_vt", most_on="replica_quorum"),
    Metric("sim.failed_share", "ratio", "lower", "vt",
           "transactions abandoned (restarts exhausted, non-retryable error, client hung at drain) / issued",
           moves="sim_throughput_vt"),
    # -- sim -----------------------------------------------------------------
    Metric("sim.events_per_commit", "count", "lower", "vt",
           "simulator events dispatched per commit", moves=_CPS, most_on="dist_2pc"),
    Metric("sim.self_share", "ratio", "lower", "host",
           "Simulator.run self time: dispatch, process resumption, client generators",
           moves=_CPS, most_on="single_rw"),
    # -- core ----------------------------------------------------------------
    Metric("core.vc_calls_per_commit", "count", "lower", "vt",
           "VersionControl.vc_* calls per commit", moves=_CPS, most_on="single_hot_write"),
    Metric("core.vc_self_share", "ratio", "lower", "host",
           "self time inside VersionControl.vc_*", moves=_CPS, most_on="single_hot_write"),
    Metric("core.vc_queue_peak", "count", "lower", "vt",
           "longest VCQueue seen after a register", moves="sim.ro_staleness_mean",
           most_on="replica_quorum"),
    # -- protocols -----------------------------------------------------------
    Metric("protocols.self_share", "ratio", "lower", "host",
           "self time of the driven object's begin/read/write/commit/abort",
           moves=_CPS, most_on="single_rw"),
    Metric("protocols.restarts_per_kcommit", "count", "lower", "vt",
           "restarted attempts per 1000 commits", moves="sim.abort_rate",
           most_on="single_hot_write"),
    # -- cc ------------------------------------------------------------------
    Metric("cc.calls_per_commit", "count", "lower", "vt",
           "LockManager acquire/release_all/cancel_request/expire_due calls per commit",
           moves=_CPS, most_on="single_hot_write"),
    Metric("cc.self_share", "ratio", "lower", "host",
           "self time inside the lock manager", moves=_CPS, most_on="single_hot_write"),
    Metric("cc.wait_ratio", "ratio", "lower", "vt",
           "acquires returned pending / acquires", moves="sim_rw_p99_vt",
           most_on="single_hot_write"),
    Metric("cc.deadlocks_per_kcommit", "count", "lower", "vt",
           "deadlock victims per 1000 commits", moves="sim.abort_rate",
           most_on="single_hot_write"),
    # -- storage -------------------------------------------------------------
    Metric("storage.read_calls_per_commit", "count", "lower", "vt",
           "MVStore.read_snapshot/read_latest_committed/version_leq calls per commit",
           moves=_CPS, most_on="single_ro_scan"),
    Metric("storage.read_self_share", "ratio", "lower", "host",
           "self time of those reads", moves=_CPS, most_on="single_ro_scan"),
    Metric("storage.install_calls_per_commit", "count", "lower", "vt",
           "MVStore.install/place_pending/commit_pending calls per commit",
           moves=_CPS, most_on="single_hot_write"),
    Metric("storage.install_self_share", "ratio", "lower", "host",
           "self time of those installs", moves=_CPS, most_on="single_hot_write"),
    Metric("storage.max_chain", "count", "lower", "vt",
           "longest version chain at the end of the pass", moves="peak_rss_mb",
           most_on="single_ro_scan"),
    Metric("storage.live_versions_final", "count", "lower", "vt",
           "retained versions at the end of the pass", moves="peak_rss_mb",
           most_on="single_ro_scan"),
    Metric("storage.gc_self_share", "ratio", "lower", "host",
           "self time of GarbageCollector.collect", moves=_CPS, most_on="single_rw"),
    Metric("storage.gc_scanned_per_reclaimed", "ratio", "lower", "vt",
           "versions examined per version reclaimed", moves=_CPS, most_on="single_rw"),
    Metric("storage.wal_appends_per_commit", "count", "lower", "vt",
           "WriteAheadLog.append calls per commit (replica apply included)",
           moves="peak_rss_mb", most_on="replica_quorum"),
    Metric("storage.wal_forces_per_commit", "count", "lower", "vt",
           "WriteAheadLog.force calls per commit", moves=_CPS, most_on="dist_2pc, replica_quorum"),
    Metric("storage.wal_self_share", "ratio", "lower", "host",
           "self time of WAL append and force", moves=_CPS, most_on="dist_2pc, replica_quorum"),
    # -- histories -----------------------------------------------------------
    Metric("histories.recorder_self_share", "ratio", "lower", "host",
           "self time of HistoryRecorder.record_*", moves=_CPS, most_on="single_rw"),
    Metric("histories.checker_share", "ratio", "lower", "host",
           "check_one_copy_serializable time over run + check", moves=_CPS,
           most_on="single_certified"),
    Metric("histories.checker_edges_per_txn", "count", "lower", "vt",
           "MVSG edges built per committed transaction", moves=_CPS,
           most_on="single_certified"),
    # -- distributed ---------------------------------------------------------
    Metric("distributed.messages_per_commit", "count", "lower", "vt",
           "Courier.dispatch calls per commit", moves="sim_rw_p50_vt",
           most_on="dist_2pc, shard_mixed"),
    Metric("distributed.courier_self_share", "ratio", "lower", "host",
           "self time of Courier.dispatch/call_later", moves=_CPS, most_on="dist_2pc"),
    Metric("distributed.handler_self_share", "ratio", "lower", "host",
           "self time of the callables handed to the courier (message handlers)",
           moves=_CPS, most_on="dist_2pc, shard_mixed"),
    Metric("distributed.dvc_calls_per_commit", "count", "lower", "vt",
           "DistributedVersionControl vc_start/hold/adopt/complete/discard calls per commit",
           moves=_CPS, most_on="dist_2pc, shard_mixed"),
    Metric("distributed.dvc_self_share", "ratio", "lower", "host",
           "self time of those calls", moves=_CPS, most_on="dist_2pc, shard_mixed"),
    # -- replica -------------------------------------------------------------
    Metric("replica.ship_self_share", "ratio", "lower", "host",
           "self time of LogShipper.ship/on_ack and QuorumGate.register", moves=_CPS,
           most_on="replica_quorum"),
    Metric("replica.apply_self_share", "ratio", "lower", "host",
           "self time of Replica.receive_segment", moves=_CPS, most_on="replica_quorum"),
    Metric("replica.ro_self_share", "ratio", "lower", "host",
           "self time of Replica.begin/read/commit", moves=_CPS, most_on="replica_quorum"),
    Metric("replica.segments_per_commit", "count", "lower", "vt",
           "log segments shipped per commit", moves=_CPS, most_on="replica_quorum"),
    Metric("replica.records_per_segment", "count", "lower", "vt",
           "log records per shipped segment", moves=_CPS, most_on="replica_quorum"),
    Metric("replica.max_lag_txns", "count", "lower", "vt",
           "largest primary-to-replica watermark distance seen at a slice boundary",
           moves="sim.ro_staleness_mean", most_on="replica_quorum"),
    Metric("replica.quorum_wait_vt_p50", "vt", "lower", "vt",
           "median virtual time a read-write commit call waits for its acknowledgement",
           moves="sim_rw_p50_vt", most_on="replica_quorum"),
    # -- shard ---------------------------------------------------------------
    Metric("shard.ring_calls_per_commit", "count", "lower", "vt",
           "HashRing.shard_of calls per commit", moves=_CPS, most_on="shard_mixed"),
    Metric("shard.ring_self_share", "ratio", "lower", "host",
           "self time of HashRing.shard_of", moves=_CPS, most_on="shard_mixed"),
    Metric("shard.vector_self_share", "ratio", "lower", "host",
           "self time of sweep_consistent_vector", moves=_CPS, most_on="shard_mixed"),
    Metric("shard.db_self_share", "ratio", "lower", "host",
           "self time of ShardedDatabase.begin/commit", moves=_CPS, most_on="shard_mixed"),
    Metric("shard.fast_commit_ratio", "ratio", "higher", "vt",
           "single-shard fast commits / read-write commits", moves="sim_rw_p50_vt",
           most_on="shard_mixed"),
    Metric("shard.xlog_peak", "count", "lower", "vt",
           "longest cross-shard visibility log seen at a slice boundary",
           moves="peak_rss_mb", most_on="shard_mixed"),
    # -- obs -----------------------------------------------------------------
    Metric("obs.events_per_commit", "count", "lower", "vt",
           "Tracer.emit calls per commit (0 under NULL_TRACER)", moves=_CPS,
           most_on="single_observed"),
    Metric("obs.emit_self_share", "ratio", "lower", "host",
           "self time of Tracer.emit", moves=_CPS, most_on="single_observed"),
    Metric("obs.ring_self_share", "ratio", "lower", "host",
           "self time of RingBufferExporter.export", moves=_CPS, most_on="single_observed"),
    Metric("obs.slo_self_share", "ratio", "lower", "host",
           "self time of SLOEngine.export", moves=_CPS, most_on="single_observed"),
    Metric("obs.witness_self_share", "ratio", "lower", "host",
           "self time of WitnessEngine.export", moves=_CPS, most_on="single_observed"),
    Metric("obs.overhead_ratio", "ratio", "lower", "host",
           "same inputs unobserved over observed commits_per_cal_s (the price of watching)",
           moves=_CPS, most_on="single_observed"),
    Metric("obs.witness_peak_tracked", "count", "lower", "vt",
           "most transactions the sealing witness tracked at once", moves="peak_rss_mb",
           most_on="single_observed"),
)

#: Driver entry points: a missing one is a hard failure, never a null.
DRIVER_ENTRY_POINTS: tuple[str, ...] = (
    "repro.sim.engine.Simulator",
    "repro.protocols.registry.make_scheduler",
    "repro.distributed.courier.Courier",
    "repro.distributed.database.DistributedVCDatabase",
    "repro.replica.cluster.ReplicaCluster",
    "repro.replica.quorum.ReplicationMode",
    "repro.shard.database.ShardedDatabase",
    "repro.obs.pipeline.ObsPipeline",
    "repro.obs.slo.SLOEngine",
    "repro.obs.slo.bench_objectives",
    "repro.obs.witness.WitnessEngine",
    "repro.histories.checker.check_one_copy_serializable",
    "repro.errors.TransactionAborted",
    "repro.errors.VersionNotFound",
    "repro.errors.is_retryable",
)
