"""Output checks: is what the system produced on these inputs correct?

Run by the *verify* pass (a short run of the same inputs, nothing timed).
Each check is ``{"name", "ok", "detail"}``; one failing check marks the
whole benchmark run incorrect and the exit status non-zero.
"""

from __future__ import annotations

from typing import Any

from repro.histories.checker import check_one_copy_serializable

from .topology import Topology


def _check(name: str, ok: bool, detail: str = "") -> dict[str, Any]:
    return {"name": name, "ok": bool(ok), "detail": detail}


def verify(topo: Topology, hung: int) -> list[dict[str, Any]]:
    tally = topo.tally
    counters = topo.counters()
    out = [
        _check("no_failed_transactions", tally.failed == 0, f"failed={tally.failed}"),
        _check("no_hung_clients", hung == 0, f"hung={hung}"),
        _check("scripts_outlast_run", tally.ran_dry == 0, f"ran_dry={tally.ran_dry}"),
        _check("made_progress", len(tally.ro) > 0 and len(tally.rw) > 0,
               f"ro={len(tally.ro)} rw={len(tally.rw)}"),
    ]

    report = check_one_copy_serializable(topo.db.history)
    out.append(_check(
        "one_copy_serializable", report.serializable,
        f"transactions={report.transactions} edges={report.edges} cycle={report.cycle[:6]}",
    ))

    # The paper's read-only guarantee: never block, never touch concurrency
    # control, never abort.
    ro_bad = {
        name: value for name, value in counters.items()
        if value and (
            name in ("block.ro", "cc.ro", "shard.ro_blocked", "shard.vector_inconsistent")
            or name.startswith("abort.ro")
        )
    }
    out.append(_check("read_only_guarantee", not ro_bad, f"nonzero={ro_bad}"))

    if topo.workload.topology == "shard":
        out.append(_check(
            "snapshot_vectors_consistent", tally.torn_snapshots == 0,
            f"torn_snapshots={tally.torn_snapshots}",
        ))

    cluster = topo.cluster
    if cluster is not None:
        durable = cluster.log.durable_length()
        behind = {
            rid: (replica.applied_offset, replica.vtnc)
            for rid, replica in cluster.replicas.items()
            if replica.applied_offset != durable or replica.vtnc != cluster.primary.vc.vtnc
        }
        out.append(_check(
            "replicas_converged", not behind,
            f"durable={durable} vtnc={cluster.primary.vc.vtnc} behind={behind}",
        ))
        degraded = {
            name: counters.get(name, 0) for name in ("quorum.fenced", "quorum.indeterminate")
        }
        out.append(_check("quorum_clean", not any(degraded.values()), f"{degraded}"))
        store = cluster.primary.store
        wrong = sum(
            1 for key, sn, tn in tally.replica_reads if store.read_snapshot(key, sn).tn != tn
        )
        out.append(_check(
            "replica_reads_match_primary", wrong == 0 and len(tally.replica_reads) > 0,
            f"audited={len(tally.replica_reads)} wrong={wrong}",
        ))

    if topo.pipeline is not None:
        slo = topo.pipeline.engine.report()
        witness = topo.pipeline.witness.report()
        out.append(_check("slo_ok", slo["ok"], f"breaches={slo['breaches']}"))
        out.append(_check(
            "witness_ok", witness["ok"] and witness["serializable"],
            f"violations={witness['violation_count']}",
        ))
    return out
