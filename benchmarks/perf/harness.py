"""One *pass*: a child process that sets up a topology and measures it.

A pass does a fixed, seed-determined amount of simulated work, so every
virtual-time number and every count it reports repeats exactly.  Host time
is taken per *slice* — one ``sim.run(until=...)`` step of fixed virtual
length — and each slice is preceded by a run of the calibration kernel, so
a slice's cost is expressed in kernel iterations, not in nanoseconds of a
box whose speed drifts.  The parent (``runner``) repeats passes and takes
medians.

Modes: ``untraced`` (end-to-end numbers), ``traced`` (layer shims on,
shorter), ``verify`` (short, output checks, nothing timed) and ``profile``
(exact Python call count).
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import heapq
import resource
import statistics
import time
from typing import Any

from repro.histories.checker import check_one_copy_serializable

from . import checks, shims
from .spec import CAL_SECOND_ITERS, WORKLOAD_BY_NAME, Workload
from .topology import Topology, build

KERNEL_ITERS = 4_000
#: What one kernel run takes on the box the sizes were chosen on; set-up
#: time is rescaled to it so a slow hour does not read as a slower set-up.
NOMINAL_KERNEL_NS = 2_000_000
_ns = time.perf_counter_ns


def _kernel_process():
    value = 0
    while True:
        value = (yield value) + 1


def kernel_ns() -> int:
    """Time the calibration kernel: what the simulator's inner loop is made
    of (heap push/pop, generator ``send``, dict store), in fixed amount."""
    heap: list[tuple[float, int]] = []
    store: dict[int, int] = {}
    process = _kernel_process()
    next(process)
    push, pop, send = heapq.heappush, heapq.heappop, process.send
    start = _ns()
    for i in range(KERNEL_ITERS):
        push(heap, ((i * 7919) % 1013 + 0.5, i))
        if i & 1:
            when, seq = pop(heap)
            store[seq & 255] = send(seq)
    return _ns() - start


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(int(q * len(sorted_values)), len(sorted_values) - 1)]


def _pass_length(workload: Workload, mode: str) -> tuple[float, int]:
    """(measured virtual time, slices) of a pass in ``mode``."""
    share = {
        "untraced": 1.0,
        "traced": workload.traced_share,
        "verify": workload.verify_share,
        "profile": workload.profile_share,
    }[mode]
    slices = max(int(workload.slices * share), 4)
    return slices * (workload.horizon / workload.slices), slices


def run_pass(spec: dict[str, Any]) -> dict[str, Any]:
    """Execute one pass described by ``spec`` (built by ``runner.run_child``):
    ``workload``, ``mode``, ``seed``, ``t0`` (parent's monotonic clock at
    spawn), and optionally ``overrides``, ``inject``, ``trace_out``."""
    workload = WORKLOAD_BY_NAME[spec["workload"]]
    if "overrides" in spec:
        workload = dataclasses.replace(workload, **spec["overrides"])
    mode = spec["mode"]
    measured_vt, slices = _pass_length(workload, mode)
    warmup = workload.warmup
    vt_span = warmup + measured_vt
    slice_vt = measured_vt / slices

    recorder = None
    unresolved: list[str] = []
    installed = shims.Installed()
    try:
        for inject in spec.get("inject", ()):
            shims.install_busy_loop(installed, inject["target"], inject["busy_us"])
        if mode == "traced":
            recorder = shims.Recorder()
            unresolved = shims.install(installed, recorder)
        topo = build(workload, spec["seed"], vt_span, audit=mode == "verify")
        if recorder is not None:
            shims.wrap_instance(installed, recorder, topo.db)
        result = _measure(topo, spec, mode, warmup, slice_vt, slices, recorder)
    finally:
        installed.remove()
    result["unresolved_layers"] = unresolved
    result["shims_pristine"] = installed.pristine()
    return result


def _measure(
    topo: Topology,
    spec: dict[str, Any],
    mode: str,
    warmup: float,
    slice_vt: float,
    slices: int,
    recorder: "shims.Recorder | None",
) -> dict[str, Any]:
    workload, sim, tally = topo.workload, topo.sim, topo.tally
    profiler = cProfile.Profile() if mode == "profile" else None

    # Warm-up: caches fill, chains and queues reach their working shape.
    sim.run(until=warmup)
    kernel_ns()
    gc.collect()
    gc.disable()  # the cyclic GC would land in arbitrary slices
    base_commits, base_events = tally.commits, sim.events_dispatched
    rows: list[tuple[int, int, int, int]] = []  # slice_ns, commits, events, kernel_ns
    boundaries: list[tuple[int, int]] = []
    max_lag = 0
    xlog_peak = 0
    if recorder is not None:
        recorder.start()
    if profiler is not None:
        profiler.enable()
    setup_done = time.monotonic()
    try:
        for index in range(1, slices + 1):
            k_ns = kernel_ns() if profiler is None else 0
            commits, events = tally.commits, sim.events_dispatched
            start = _ns()
            sim.run(until=warmup + index * slice_vt)
            elapsed = _ns() - start
            rows.append((elapsed, tally.commits - commits, sim.events_dispatched - events, k_ns))
            boundaries.append((tally.commits, sim.events_dispatched))
            if topo.cluster is not None:
                max_lag = max(max_lag, topo.cluster.max_lag_txns())
            elif workload.topology == "shard":
                xlog_peak = max(xlog_peak, max(topo.db.xlog_sizes().values()))
    finally:
        if profiler is not None:
            profiler.disable()
        if recorder is not None:
            recorder.stop()
    measured_commits = tally.commits - base_commits
    measured_events = sim.events_dispatched - base_events

    # The S1 checker inside the timed region (single_certified only): each
    # repeat is bracketed by kernel runs so it too is in kernel iterations.
    # The profile pass counts the checker's calls as it counts the run's.
    checker: dict[str, Any] = {}
    if workload.checker_repeats and mode in ("untraced", "traced"):
        checker = _time_checker(topo, workload.checker_repeats if mode == "untraced" else 1, recorder)
    elif workload.checker_repeats and profiler is not None:
        profiler.enable()
        try:
            check_one_copy_serializable(topo.db.history)
        finally:
            profiler.disable()
    gc.enable()

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Drain outside the timed region: clients stop issuing at the horizon,
    # so the queue empties; whoever is still suspended then is hung.
    sim.run()
    if topo.pipeline is not None:
        topo.pipeline.close()
    hung = sum(1 for p in sim.processes if not p.finished)

    out: dict[str, Any] = {
        "setup_wall_s": setup_done - spec["t0"],
        "rss_mb": rss_mb,
        "slices": slices,
        "commits": measured_commits,
        "events": measured_events,
        "boundaries": boundaries,
        "attempted": tally.issued,
        "failed": tally.failed + hung,
        "ran_dry": tally.ran_dry,
    }
    out["vt"] = _vt_metrics(topo, warmup, warmup + slices * slice_vt, measured_commits, hung)
    out["counts"] = _counts(topo, measured_commits, measured_events, max_lag, xlog_peak)
    if mode in ("untraced", "traced"):
        out["host"] = _host_metrics(rows, checker, measured_commits)
        # The kernel runs nearest in time to the set-up say how fast the box was.
        nearby = statistics.median(row[3] for row in rows[:25])
        out["setup_s"] = out["setup_wall_s"] * NOMINAL_KERNEL_NS / nearby
    if checker:
        out["checker"] = checker
    if recorder is not None:
        out["layers"] = recorder.summary(measured_commits)
        if spec.get("trace_out"):
            recorder.dump(spec["trace_out"])
    if profiler is not None:
        calls = sum(e.callcount for e in profiler.getstats() if not isinstance(e.code, str))
        out["py_calls_per_commit"] = calls / measured_commits
    if mode == "verify":
        out["checks"] = checks.verify(topo, hung)
    return out


def _time_checker(topo: Topology, repeats: int, recorder) -> dict[str, Any]:
    check = check_one_copy_serializable
    if recorder is not None:
        check = recorder.wrap("histories.checker", "check_one_copy_serializable", check)
        recorder.start()
    history = topo.db.history
    iters: list[float] = []
    ns: list[int] = []
    report = None
    try:
        for _ in range(repeats):
            # One long call cannot be sliced, so the box's speed is taken
            # from several kernel runs on either side of it.
            bracket = [kernel_ns() for _ in range(5)]
            start = _ns()
            report = check(history)
            elapsed = _ns() - start
            bracket += [kernel_ns() for _ in range(5)]
            ns.append(elapsed)
            iters.append(elapsed / (statistics.median(bracket) / KERNEL_ITERS))
    finally:
        if recorder is not None:
            recorder.stop()
    return {
        "iters": statistics.median(iters),
        "ns": statistics.median(ns),
        "repeat_iters": iters,
        "transactions": report.transactions,
        "edges": report.edges,
        "serializable": report.serializable,
    }


def _host_metrics(rows, checker: dict[str, Any], commits: int) -> dict[str, Any]:
    """Per-pass host ledger; the parent pools ``iters_per_commit`` slices."""
    per_commit = [
        ns / c / (k / KERNEL_ITERS) for ns, c, _e, k in rows if c > 0 and k > 0
    ]
    kernels = [k for _ns, _c, _e, k in rows]
    quarter = max(len(per_commit) // 4, 1)
    total_ns = sum(r[0] for r in rows)
    run_iters = statistics.median(per_commit)
    txns = checker["transactions"] if checker else 1
    check_iters = checker["iters"] / txns if checker else 0.0
    check_ns = checker["ns"] if checker else 0
    return {
        "slice_iters_per_commit": per_commit,
        # One value per checker repeat ([0.0] without a checker): the parent
        # pools them over passes like the slices.
        "check_iters_per_commit": [v / txns for v in checker["repeat_iters"]] if checker else [0.0],
        "iters_per_commit": run_iters + check_iters,
        "commits_per_cal_s": CAL_SECOND_ITERS / (run_iters + check_iters),
        "commits_per_s_raw": commits / ((total_ns + check_ns) / 1e9),
        "cal_kernel_ms": statistics.median(kernels) / 1e6,
        "noise_cv": statistics.pstdev(kernels) / statistics.fmean(kernels),
        "cost_growth_ratio": statistics.median(per_commit[-quarter:])
        / statistics.median(per_commit[:quarter]),
        "checker_share": check_ns / (total_ns + check_ns),
    }


def _vt_metrics(topo: Topology, start: float, end: float, commits: int, hung: int):
    tally = topo.tally

    def window(samples):
        return sorted(v for t, v in samples if start < t <= end)

    ro, rw, ack = window(tally.ro), window(tally.rw), window(tally.rw_ack)
    stale = [v for t, v in tally.staleness if start <= t < end]
    return {
        "sim_throughput_vt": commits / (end - start),
        "sim_rw_p50_vt": percentile(rw, 0.50),
        "sim_rw_p99_vt": percentile(rw, 0.99),
        "sim_ro_p50_vt": percentile(ro, 0.50),
        "sim_ro_p99_vt": percentile(ro, 0.99),
        "rw_samples": len(rw),
        "ro_samples": len(ro),
        "sim.abort_rate": tally.aborts / tally.attempts if tally.attempts else 0.0,
        "sim.ro_staleness_mean": statistics.fmean(stale) if stale else 0.0,
        "sim.failed_share": (tally.failed + hung) / tally.issued if tally.issued else 1.0,
        "replica.quorum_wait_vt_p50": percentile(ack, 0.50) if topo.cluster is not None else 0.0,
    }


def _counts(topo: Topology, commits: int, events: int, max_lag: int, xlog_peak: int):
    """Exact counts read from the system's own public counters (whole pass,
    warm-up and drain included, over the commits of the whole pass)."""
    tally = topo.tally
    counters = topo.counters()
    total = max(tally.commits, 1)
    live = longest = 0
    for store in topo.stores:
        n, chain = store.chain_stats()
        live += n
        longest = max(longest, chain)
    forces = sum(w.forces for w in topo.wals)
    appends = sum(len(w) for w in topo.wals)
    gc = getattr(topo.db, "gc", None)
    fast = counters.get("shard.fast_commits", 0)
    cross = counters.get("shard.cross_commits", 0)
    shipper = topo.cluster.shipper if topo.cluster is not None else None
    segments = shipper.segments_shipped if shipper else 0
    records = shipper.records_shipped if shipper else 0
    return {
        "sim.events_per_commit": events / max(commits, 1),
        "protocols.restarts_per_kcommit": 1000.0 * (tally.attempts - tally.issued) / total,
        "cc.deadlocks_per_kcommit": 1000.0 * counters.get("abort.rw.deadlock_victim", 0) / total,
        "storage.max_chain": longest,
        "storage.live_versions_final": live,
        "storage.gc_scanned_per_reclaimed": gc.scan_cost_per_reclaimed() if gc and gc.passes else 0.0,
        "storage.wal_appends_per_commit": appends / total,
        "storage.wal_forces_per_commit": forces / total,
        "distributed.messages_per_commit": topo.courier.delivered / total if topo.courier else 0.0,
        "shard.fast_commit_ratio": fast / (fast + cross) if fast + cross else 0.0,
        "shard.xlog_peak": xlog_peak,
        "replica.max_lag_txns": max_lag,
        "replica.segments_per_commit": segments / total,
        "replica.records_per_segment": records / segments if segments else 0.0,
        "obs.witness_peak_tracked": (
            topo.pipeline.witness.report()["peak_tracked"] if topo.pipeline else 0
        ),
    }
