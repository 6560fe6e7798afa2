"""The experiment suite: one function per experiment in DESIGN.md's index.

Each function runs the relevant protocols on the relevant workloads and
returns an :class:`ExperimentResult` with printable headers/rows plus a
``summary`` dict of the quantities the tests and EXPERIMENTS.md assert on.
Benchmarks in ``benchmarks/`` are thin wrappers that time these functions
and print their tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bench.metrics import RunMetrics
from repro.bench.runner import SimConfig, run_simulation
from repro.protocols.registry import make_scheduler
from repro.workload.mixes import balanced, contended_small, write_heavy_hotspot
from repro.workload.spec import WorkloadSpec

ALL_PROTOCOLS = (
    "vc-2pl",
    "vc-to",
    "vc-occ",
    "mvto-reed",
    "mv2pl-chan",
    "weihl-ti",
    "sv-2pl",
    "sv-to",
)

VC = ("vc-2pl", "vc-to", "vc-occ")


@dataclass
class ExperimentResult:
    """Printable table plus machine-checkable summary."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    summary: dict[str, Any] = field(default_factory=dict)


def _run(name: str, workload: WorkloadSpec, config: SimConfig) -> RunMetrics:
    return run_simulation(make_scheduler(name), workload, config)


# -- EXP-A ----------------------------------------------------------------------


def exp_a_ro_overhead(seed: int = 0, duration: float = 400.0) -> ExperimentResult:
    """Concurrency-control work performed on behalf of read-only transactions.

    Paper claim (Sections 1, 6): under version control, read-only
    transactions "do not have any concurrency control overhead" — exactly
    one version-control call (``VCstart``) and nothing else.  Baselines pay
    per-read synchronization.
    """
    config = SimConfig(duration=duration, n_clients=8)
    rows = []
    summary: dict[str, float] = {}
    for name in ALL_PROTOCOLS:
        m = _run(name, balanced(seed=seed, ro_fraction=0.5), config)
        cc_per_ro = m.per_ro_commit("cc.ro")
        sync_per_ro = m.per_ro_commit("syncwrite.ro")
        vc_per_ro = m.per_ro_commit("vc.ro")
        rows.append(
            [name, m.commits_ro, cc_per_ro, sync_per_ro, vc_per_ro, m.counter("block.ro")]
        )
        summary[f"{name}.cc_per_ro"] = cc_per_ro
        summary[f"{name}.sync_per_ro"] = sync_per_ro
    return ExperimentResult(
        "EXP-A",
        "Read-only transaction overhead (per committed RO txn)",
        ["protocol", "RO commits", "CC ops/RO", "sync writes/RO", "VC calls/RO", "RO blocks"],
        rows,
        summary,
    )


# -- EXP-B ----------------------------------------------------------------------


def exp_b_ro_caused_aborts(seed: int = 0, duration: float = 600.0) -> ExperimentResult:
    """Read-write aborts caused by read-only transactions.

    Paper claim (Section 2): in Reed's MVTO a read-only transaction's
    read-timestamp update can abort a read-write transaction; under version
    control it never can.
    """
    config = SimConfig(duration=duration, n_clients=10)
    workload = write_heavy_hotspot(seed=seed, ro_fraction=0.5)
    rows = []
    summary: dict[str, int] = {}
    for name in ("vc-2pl", "vc-to", "vc-occ", "mvto-reed"):
        m = _run(name, workload, config)
        caused = m.counter("abort.rw.caused_by_readonly")
        rows.append([name, m.commits_rw, m.aborts_rw, caused])
        summary[f"{name}.ro_caused"] = caused
        summary[f"{name}.aborts_rw"] = m.aborts_rw
    return ExperimentResult(
        "EXP-B",
        "Read-write aborts attributable to read-only readers",
        ["protocol", "RW commits", "RW aborts", "RW aborts caused by RO"],
        rows,
        summary,
    )


# -- EXP-C ----------------------------------------------------------------------


def exp_c_ro_blocking(seed: int = 0, duration: float = 500.0) -> ExperimentResult:
    """Read-only blocking probability and latency under a write-heavy hot spot.

    Paper claim (Section 2): MVTO read operations "may be blocked due to a
    pending write"; version-control read-only reads never block.
    """
    config = SimConfig(duration=duration, n_clients=12)
    workload = write_heavy_hotspot(seed=seed)
    rows = []
    summary: dict[str, float] = {}
    for name in ALL_PROTOCOLS:
        m = _run(name, workload, config)
        blocks = m.counter("block.ro")
        per_ro = m.per_ro_commit("block.ro")
        rows.append(
            [name, m.commits_ro, blocks, per_ro, m.latency_ro.mean, m.latency_ro.p95]
        )
        summary[f"{name}.ro_blocks"] = blocks
        summary[f"{name}.ro_latency_mean"] = m.latency_ro.mean
    return ExperimentResult(
        "EXP-C",
        "Read-only blocking under a write-heavy hot spot",
        ["protocol", "RO commits", "RO blocks", "blocks/RO", "RO latency mean", "RO latency p95"],
        rows,
        summary,
    )


# -- EXP-D ----------------------------------------------------------------------


def exp_d_visibility_lag(seed: int = 0, duration: float = 500.0) -> ExperimentResult:
    """Delayed visibility: the lag between tnc and vtnc (paper Section 6).

    Measured under VC + timestamp ordering, where a transaction registers —
    and starts delaying visibility — at *begin*, so the lag spans whole
    transaction lifetimes.  (Under VC + 2PL registration and completion are
    a single atomic commit step, so the Section 6 lag is structurally zero
    there — itself a reproducible observation, recorded in EXPERIMENTS.md.)
    Longer read-write transactions hold ``vtnc`` back further; the table
    sweeps transaction length and reports the counter lag and the staleness
    read-only transactions observed at begin.
    """
    rows = []
    summary: dict[str, float] = {}
    for label, rw_ops in (("short(2-4)", (2, 4)), ("medium(6-10)", (6, 10)), ("long(14-20)", (14, 20))):
        workload = balanced(seed=seed, rw_ops=rw_ops, ro_fraction=0.4)
        config = SimConfig(duration=duration, n_clients=10)
        m = _run("vc-to", workload, config)
        lag_avg = m.vc_lag.average(m.duration) if m.vc_lag else 0.0
        lag_max = m.vc_lag.maximum if m.vc_lag else 0.0
        rows.append(
            [label, lag_avg, lag_max, m.staleness_ro.mean, m.staleness_ro.maximum]
        )
        summary[f"{label}.lag_avg"] = lag_avg
        summary[f"{label}.staleness_mean"] = m.staleness_ro.mean
    return ExperimentResult(
        "EXP-D",
        "Visibility lag (tnc - vtnc) vs read-write transaction length (vc-to)",
        ["RW txn length", "lag (time-avg)", "lag (max)", "RO staleness mean", "RO staleness max"],
        rows,
        summary,
    )


# -- EXP-E ----------------------------------------------------------------------


def exp_e_mv_vs_sv(seed: int = 0, duration: float = 400.0) -> ExperimentResult:
    """Multiversion vs single-version throughput as read-only share grows.

    Paper claim (Section 1): multiple versions raise achievable concurrency
    because out-of-order reads are served from older versions.
    """
    rows = []
    summary: dict[str, float] = {}
    for ro_fraction in (0.2, 0.5, 0.8):
        for name in ("vc-2pl", "sv-2pl", "vc-to", "sv-to"):
            workload = write_heavy_hotspot(seed=seed, ro_fraction=ro_fraction, ro_ops=(4, 10))
            config = SimConfig(duration=duration, n_clients=12)
            m = _run(name, workload, config)
            rows.append(
                [
                    ro_fraction,
                    name,
                    m.throughput,
                    m.abort_rate_ro,
                    m.latency_ro.mean,
                    m.counter("block.ro"),
                ]
            )
            summary[f"{name}@{ro_fraction}.throughput"] = m.throughput
            summary[f"{name}@{ro_fraction}.ro_latency"] = m.latency_ro.mean
    return ExperimentResult(
        "EXP-E",
        "Multiversion vs single-version as read-only fraction grows",
        ["RO fraction", "protocol", "throughput", "RO abort rate", "RO latency mean", "RO blocks"],
        rows,
        summary,
    )


# -- EXP-F ----------------------------------------------------------------------


def exp_f_ctl_cost(seed: int = 0) -> ExperimentResult:
    """Completed-transaction-list costs in Chan's MV2PL vs version control.

    Paper claim (Section 2): maintaining and consulting the CTL is
    "cumbersome"; the version-control mechanism replaces it with two
    counters.  CTL state grows with history; VC state does not.
    """
    rows = []
    summary: dict[str, float] = {}
    for duration in (200.0, 400.0, 800.0):
        config = SimConfig(duration=duration, n_clients=8)
        workload = balanced(seed=seed, ro_fraction=0.4)
        chan = _run("mv2pl-chan", workload, config)
        vc = _run("vc-2pl", workload, config)
        ctl_entries_per_ro = chan.per_ro_commit("ctl.copied_entries")
        probes_per_ro = chan.per_ro_commit("ctl.membership_checks")
        rows.append(
            [
                duration,
                chan.commits_rw,
                ctl_entries_per_ro,
                probes_per_ro,
                vc.per_ro_commit("vc.ro"),
            ]
        )
        summary[f"{duration}.ctl_entries_per_ro"] = ctl_entries_per_ro
        summary[f"{duration}.vc_calls_per_ro"] = vc.per_ro_commit("vc.ro")
    return ExperimentResult(
        "EXP-F",
        "CTL cost growth (mv2pl-chan) vs constant VC cost (vc-2pl)",
        ["duration", "RW commits", "CTL entries copied/RO", "CTL probes/RO", "VC calls/RO (vc-2pl)"],
        rows,
        summary,
    )


# -- EXP-G ----------------------------------------------------------------------


def exp_g_deadlock(seed: int = 0, duration: float = 600.0) -> ExperimentResult:
    """Deadlock exposure (paper Section 4.4).

    Under VC+2PL only executing read-write transactions can deadlock (a
    runtime assertion inside the scheduler verifies no registered
    transaction is ever in a cycle); read-only transactions never appear in
    the waits-for graph.  Under single-version 2PL read-only transactions
    both block and die as victims.
    """
    config = SimConfig(duration=duration, n_clients=12)
    workload = contended_small(seed=seed, ro_fraction=0.4)
    rows = []
    summary: dict[str, int] = {}
    for name in ("vc-2pl", "mv2pl-chan", "sv-2pl"):
        m = _run(name, workload, config)
        ro_victims = m.counter("abort.ro.deadlock_victim")
        rows.append(
            [name, m.counter("deadlock"), m.counter("abort.rw.deadlock_victim"), ro_victims, m.counter("block.ro")]
        )
        summary[f"{name}.deadlocks"] = m.counter("deadlock")
        summary[f"{name}.ro_victims"] = ro_victims
        summary[f"{name}.ro_blocks"] = m.counter("block.ro")
    return ExperimentResult(
        "EXP-G",
        "Deadlocks and read-only involvement under heavy lock contention",
        ["protocol", "deadlocks", "RW victims", "RO victims", "RO blocks"],
        rows,
        summary,
    )


# -- EXP-H ----------------------------------------------------------------------


def exp_h_gc(seed: int = 0, duration: float = 500.0) -> ExperimentResult:
    """Garbage collection bounded by vtnc and active readers (Section 6).

    Sweeps the collection period; retained version count stabilizes, no
    read ever misses its version (zero RO aborts), and the collector never
    touches versions at or above the horizon.
    """
    rows = []
    summary: dict[str, float] = {}
    for period in (0.0, 100.0, 25.0, 5.0):
        workload = balanced(seed=seed, ro_fraction=0.3, ro_ops=(4, 12))
        config = SimConfig(duration=duration, n_clients=8, gc_period=period)
        m = _run("vc-2pl", workload, config)
        label = "off" if period == 0 else f"every {period:g}"
        rows.append(
            [label, m.version_count_final, m.gc_discarded, m.aborts_ro, m.serializable]
        )
        summary[f"{label}.versions"] = m.version_count_final
        summary[f"{label}.ro_aborts"] = m.aborts_ro
    return ExperimentResult(
        "EXP-H",
        "Version retention under GC period sweep (vc-2pl)",
        ["GC period", "versions retained", "versions discarded", "RO aborts", "1SR"],
        rows,
        summary,
    )


# -- EXP-I ----------------------------------------------------------------------


def exp_i_serializability(seed: int = 0) -> ExperimentResult:
    """Theorem 1 as a measurement: every produced history is 1SR.

    Runs increasing-size randomized workloads through each VC protocol and
    checks MVSG acyclicity; also reports checker problem sizes.
    """
    rows = []
    summary: dict[str, Any] = {}
    for name in VC:
        for duration in (150.0, 450.0):
            workload = balanced(seed=seed)
            config = SimConfig(duration=duration, n_clients=8, check_serializability=True)
            m = _run(name, workload, config)
            rows.append([name, duration, m.history_transactions, m.serializable])
            summary[f"{name}@{duration}.serializable"] = m.serializable
    return ExperimentResult(
        "EXP-I",
        "One-copy serializability of every produced history (Theorem 1)",
        ["protocol", "duration", "committed txns checked", "1SR"],
        rows,
        summary,
    )


# -- EXP-J ----------------------------------------------------------------------


def exp_j_distributed(seed: int = 0, rounds: int = 40) -> ExperimentResult:
    """Global serializability of distributed read-only transactions.

    Paper claims (Sections 2, 6): the distributed version-control mechanism
    guarantees global serializability of read-only transactions with no
    a-priori site knowledge; ref [8]'s distributed MV2PL does not.  Random
    cross-site update traffic with randomly delayed messages; read-only
    transactions read both halves of every distributed update.  A "torn
    read" observes half of one; the oracle confirms non-1SR global
    histories for the baseline and 1SR for distributed VC.
    """
    import random

    from repro.distributed import Courier, DistributedMV2PL, DistributedVCDatabase
    from repro.histories.checker import check_one_copy_serializable
    from repro.histories.mvsg import multiversion_serialization_graph

    def drive(db_kind: str, seed: int) -> tuple[int, int, bool]:
        rng = random.Random(seed)
        courier = Courier(manual=True)
        if db_kind == "dvc-2pl":
            db = DistributedVCDatabase(n_sites=2, courier=courier)
        else:
            db = DistributedMV2PL(n_sites=2, courier=courier)
        readers = []
        for i in range(rounds):
            # Maybe start a reader whose snapshot acquisition straddles the
            # upcoming update: its site-1 state is fetched now, site-2 later.
            ro = None
            if rng.random() < 0.7:
                if db_kind == "dvc-2pl":
                    ro = db.begin(read_only=True, origin_site=rng.randint(1, 2))
                else:
                    ro = db.begin(read_only=True, read_sites=[1, 2])
                    courier.pump(1, channel="snapshot")
            # A distributed update commits at both sites in the window.
            t = db.begin()
            fa = db.write(t, "s1:a", i)
            fb = db.write(t, "s2:b", i)
            courier.pump(channel="data")
            fa.result(), fb.result()
            done = db.commit(t)
            courier.pump(channel="2pc")
            assert done.done
            if ro is not None:
                courier.pump(channel="snapshot")  # late half of the snapshot
                readers.append((ro, db.read(ro, "s1:a"), db.read(ro, "s2:b")))
                courier.pump()
        courier.pump()
        torn = 0
        total = 0
        for ro, fa, fb in readers:
            db.commit(ro)
            if fa.done and fb.done:
                total += 1
                if fa.result() != fb.result():
                    torn += 1
        if db_kind == "dvc-2pl":
            serializable = check_one_copy_serializable(db.history).serializable
        else:
            graph = multiversion_serialization_graph(
                db.history, db.global_version_order()
            )
            serializable = graph.is_acyclic()
        return torn, total, serializable

    rows = []
    summary: dict[str, Any] = {}
    for kind in ("dvc-2pl", "dmv2pl"):
        torn_total, reads_total, non_1sr_runs = 0, 0, 0
        n_seeds = 10
        for s in range(n_seeds):
            torn, total, serializable = drive(kind, seed * 1000 + s)
            torn_total += torn
            reads_total += total
            non_1sr_runs += 0 if serializable else 1
        rows.append([kind, reads_total, torn_total, non_1sr_runs, n_seeds])
        summary[f"{kind}.torn"] = torn_total
        summary[f"{kind}.non_1sr_runs"] = non_1sr_runs
    return ExperimentResult(
        "EXP-J",
        "Distributed read-only global serializability: VC vs ref [8] MV2PL",
        ["system", "RO read pairs", "torn reads", "non-1SR runs", "runs"],
        rows,
        summary,
    )


# -- EXP-J2 ----------------------------------------------------------------------


def exp_j2_site_scaling(seed: int = 0, duration: float = 300.0) -> ExperimentResult:
    """Distributed VC as the site count grows.

    Cross-site read-write traffic plus roaming global readers under random
    message latencies; reports message cost per commit and confirms global
    one-copy serializability at every scale.
    """
    from repro.distributed import Courier, DistributedVCDatabase
    from repro.faults.campaign import rw_attempt
    from repro.histories.checker import check_one_copy_serializable
    from repro.sim.engine import Simulator, closed_loop
    from repro.sim.random_streams import RandomStreams

    rows = []
    summary: dict[str, Any] = {}
    for n_sites in (2, 4, 8):
        sim = Simulator()
        streams = RandomStreams(seed)
        latency_rng = streams.stream("latency")
        courier = Courier(sim=sim, latency=lambda: latency_rng.expovariate(1.0))
        db = DistributedVCDatabase(n_sites=n_sites, courier=courier)
        rng = streams.stream("clients")
        keys = [f"s{s}:k{i}" for s in range(1, n_sites + 1) for i in range(3)]
        stats = {"rw": 0, "ro": 0, "aborts": 0}

        def write_once():
            txn = db.begin()
            error = yield from rw_attempt(db, txn, rng.sample(keys, 2))
            stats["rw" if error is None else "aborts"] += 1

        def read_once():
            txn = db.begin(read_only=True, origin_site=rng.randint(1, n_sites))
            for key in rng.sample(keys, 3):
                yield db.read(txn, key)
            yield db.commit(txn)
            stats["ro"] += 1

        for _ in range(4):
            sim.spawn(closed_loop(sim, duration, lambda: rng.expovariate(0.3), write_once))
        for _ in range(3):
            sim.spawn(closed_loop(sim, duration, lambda: rng.expovariate(0.4), read_once))
        sim.run()
        serializable = check_one_copy_serializable(db.history).serializable
        commits = stats["rw"] + stats["ro"]
        msgs_per_commit = db.total_messages() / commits if commits else 0.0
        rows.append(
            [n_sites, stats["rw"], stats["ro"], stats["aborts"], msgs_per_commit, serializable]
        )
        summary[f"{n_sites}.serializable"] = serializable
        summary[f"{n_sites}.msgs_per_commit"] = msgs_per_commit
    return ExperimentResult(
        "EXP-J2",
        "Distributed VC scaling: sites vs message cost, global 1SR throughout",
        ["sites", "RW commits", "RO commits", "aborts", "msgs/commit", "globally 1SR"],
        rows,
        summary,
    )


# -- EXP-K ----------------------------------------------------------------------


def exp_k_weihl(seed: int = 0, duration: float = 500.0) -> ExperimentResult:
    """RO/RW synchronization and races in the Weihl-style protocol (Section 2).

    Counts reader synchronization stalls and writer re-timestamping — both
    zero under version control.
    """
    config = SimConfig(duration=duration, n_clients=12)
    workload = write_heavy_hotspot(seed=seed, ro_fraction=0.5)
    rows = []
    summary: dict[str, float] = {}
    for name in ("weihl-ti", "vc-2pl", "vc-to"):
        m = _run(name, workload, config)
        rows.append(
            [
                name,
                m.counter("weihl.ro_sync"),
                m.counter("weihl.rw_retimestamp"),
                m.per_ro_commit("cc.ro"),
                m.latency_ro.p95,
            ]
        )
        summary[f"{name}.ro_sync"] = m.counter("weihl.ro_sync")
        summary[f"{name}.retimestamps"] = m.counter("weihl.rw_retimestamp")
    return ExperimentResult(
        "EXP-K",
        "Weihl-style RO/RW synchronization vs version control",
        ["protocol", "RO sync stalls", "RW re-timestamps", "CC ops/RO", "RO latency p95"],
        rows,
        summary,
    )


# -- EXP-L ----------------------------------------------------------------------


def exp_l_uniformity(seed: int = 0, duration: float = 400.0) -> ExperimentResult:
    """Uniform integration: one workload, three concurrency controls.

    The paper's architectural claim — the same version-control module and
    the same read-only execution drop onto 2PL, TO and OCC unchanged.  The
    read-only columns must be identical in kind: zero CC interaction, one
    VCstart per transaction, zero blocking.
    """
    config = SimConfig(duration=duration, n_clients=8)
    workload = balanced(seed=seed)
    rows = []
    summary: dict[str, Any] = {}
    for name in VC:
        m = _run(name, workload, config)
        vc_per_ro = m.per_ro_commit("vc.ro")
        rows.append(
            [
                name,
                m.commits,
                m.abort_rate_rw,
                m.counter("cc.ro"),
                vc_per_ro,
                m.counter("block.ro"),
                m.serializable,
            ]
        )
        summary[f"{name}.cc_ro"] = m.counter("cc.ro")
        summary[f"{name}.vc_per_ro"] = vc_per_ro
        summary[f"{name}.serializable"] = m.serializable
    return ExperimentResult(
        "EXP-L",
        "The same VC module under 2PL, TO and OCC",
        ["protocol", "commits", "RW abort rate", "RO CC ops", "VC calls/RO", "RO blocks", "1SR"],
        rows,
        summary,
    )
