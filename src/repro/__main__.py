"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``list`` — the protocol registry with one-line descriptions;
* ``demo [protocol]`` — a short guided demo of the version-control
  mechanism on the chosen protocol (default: vc-2pl);
* ``report [EXP-A ...]`` — regenerate experiment/ablation tables
  (delegates to :mod:`repro.bench.report`);
* ``selfcheck [protocol]`` — run a randomized workload through a protocol
  and verify one-copy serializability plus the read-only guarantees;
* ``trace <file.jsonl>`` — analyze a JSONL trace written by
  :class:`repro.obs.JsonlExporter`: per-transaction timelines, blocking
  chains, visibility-lag trajectory (see ``docs/observability.md``);
* ``drill [--seeds N ...]`` — seeded fault-injection campaigns over the
  distributed protocols: lossy/duplicating/partitioned network plus site
  crash-restarts, with the paper's invariants checked throughout (see
  ``docs/faults.md``); ``drill --campaign overload`` instead runs the QoS
  overload campaign — admission shedding, deadlines, and the read-only
  fast-path guarantee (see ``docs/robustness.md``); ``drill --campaign
  replication`` runs the replication drill — WAL-shipped replicas under
  lossy/partitioned shipping with a mid-run primary fail-over, checking
  snapshot consistency, monotone watermarks, and convergence (see
  ``docs/replication.md``); ``drill --campaign availability`` runs the
  self-healing drill — quorum-acknowledged commits, automatic fail-over
  via heartbeat suspicion votes, lease fencing, and a crash-point sweep
  proving RPO=0 for acknowledged writes (see ``docs/replication.md``);
  ``drill --campaign memory`` runs the memory
  campaign — bounded version GC under snapshot leases, watermark-driven
  lease revocation, and ``SnapshotTooOld`` retry loops (see
  ``docs/gc.md``); ``drill --campaign shard`` runs the multi-primary
  sharding drill — hash-partitioned shards with independent commit
  streams, cross-shard 2PC, watermark-vector read-only snapshots, and a
  single-shard fail-over that must not stall the survivors (see
  ``docs/sharding.md``);
* ``bench [--quick ...]`` — seeded benchmark suites emitting versioned
  ``BENCH_<rev>.json`` artifacts (throughput, latency percentiles, abort
  rates, critical-path phase shares, plus ``qos`` overload, ``replica``
  scaling, ``replica_sync`` durability-mode, and ``shard`` multi-primary
  scaling blocks) with a regression comparator for CI (see
  ``docs/benchmarks.md``);
* ``watch <file.jsonl>`` — replay a recorded trace through the streaming
  SLO watchdogs: tumbling-window objectives, EWMA anomaly baselines,
  hysteresis, and breach-triggered flight-recorder bundles; exits 3 on an
  unexpected breach (see ``docs/slo.md``);
* ``explain <file.jsonl> <txn>`` — per-transaction forensics from a
  trace: operations, reads-from/anti-dependency/version-order edges in
  the serialization graph, lock waits and deadlocks, the typed abort
  reason, and the critical path (see ``docs/witness.md``).
"""

from __future__ import annotations

import pkgutil
import sys

#: The commands that parse their own arguments: name -> ``"module:main"``,
#: imported only when the command is chosen.
_DELEGATES = {
    "report": "repro.bench.report:main",
    "trace": "repro.obs.analyze:main",
    "drill": "repro.faults.drill:main",
    "bench": "repro.bench.artifact:main",
    "watch": "repro.obs.slo.watch:main",
    "explain": "repro.obs.witness.explain:main",
}

_DESCRIPTIONS = {
    "vc-2pl": "paper Figure 4: version control + strict two-phase locking",
    "vc-to": "paper Figure 3: version control + timestamp ordering",
    "vc-occ": "refs [1,2]: version control + optimistic (backward validation)",
    "vc-adaptive": "extension: runtime 2PL<->OCC switching, shared VC module",
    "vc-2pl-wal": "extension: vc-2pl with write-ahead logging and recovery",
    "vc-2pl-granular": "extension: vc-2pl over multi-granularity intention locks",
    "vc-occ-fwd": "extension: forward-validation OCC (wound the readers)",
    "mvto-reed": "baseline: Reed's multiversion timestamp ordering",
    "mv2pl-chan": "baseline: Chan et al. MV2PL with completed txn lists",
    "weihl-ti": "baseline: Weihl timestamps-at-initiation (reconstructed)",
    "sv-2pl": "baseline: single-version strict 2PL (readers lock too)",
    "sv-to": "baseline: single-version timestamp ordering",
}


def cmd_list() -> int:
    from repro.protocols.registry import PROTOCOLS

    width = max(len(name) for name in PROTOCOLS)
    for name in PROTOCOLS:
        print(f"{name:<{width}}  {_DESCRIPTIONS.get(name, '')}")
    return 0


def cmd_demo(protocol: str = "vc-2pl") -> int:
    from repro.protocols.registry import make_scheduler

    db = make_scheduler(protocol)
    print(f"demo on {protocol}\n")
    writer = db.begin()
    db.write(writer, "x", 41).result()
    db.commit(writer).result()
    print(f"T{writer.txn_id} wrote x=41, committed with tn={writer.tn}")
    reader = db.begin(read_only=True)
    print(f"read-only T{reader.txn_id} starts with sn={reader.sn}")
    concurrent = db.begin()
    db.write(concurrent, "x", 99).result()
    print(f"T{concurrent.txn_id} writes x=99 (uncommitted)")
    print(f"read-only read of x: {db.read(reader, 'x').result()} (snapshot!)")
    db.commit(concurrent).result()
    print(f"read-only read of x after that commit: {db.read(reader, 'x').result()}")
    db.commit(reader).result()
    from repro.histories.checker import check_one_copy_serializable

    report = check_one_copy_serializable(db.history)
    print(f"\nhistory 1SR: {report.serializable}; read-only CC ops: "
          f"{db.counters.get('cc.ro')}")
    return 0


def cmd_selfcheck(protocol: str = "vc-2pl") -> int:
    from repro.bench.runner import SimConfig, run_simulation
    from repro.protocols.registry import make_scheduler
    from repro.workload.mixes import balanced

    metrics = run_simulation(
        make_scheduler(protocol), balanced(seed=0), SimConfig(duration=300.0)
    )
    print(f"protocol        : {protocol}")
    print(f"commits         : {metrics.commits} (ro={metrics.commits_ro})")
    print(f"aborts          : {metrics.aborts}")
    print(f"1SR             : {metrics.serializable}")
    print(f"RO CC ops       : {metrics.counter('cc.ro')}")
    print(f"RO blocks       : {metrics.counter('block.ro')}")
    ok = metrics.serializable and metrics.commits > 0
    print("selfcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, *rest = argv
    if command == "list":
        return cmd_list()
    if command == "demo":
        return cmd_demo(*rest[:1])
    if command == "selfcheck":
        return cmd_selfcheck(*rest[:1])
    if command in _DELEGATES:
        return pkgutil.resolve_name(_DELEGATES[command])(rest)
    print(
        f"unknown command {command!r}; "
        f"try: list, demo, selfcheck, {', '.join(_DELEGATES)}"
    )
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
