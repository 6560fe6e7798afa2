"""``python -m repro explain`` — one transaction's story, from a trace.

Given a JSONL trace (written by :class:`repro.obs.JsonlExporter` on a run
with tracing attached) and a transaction id, reconstruct everything the
trace knows about that transaction:

* its operations (reads with version subscripts, writes) and lifecycle;
* its place in the serialization graph — reads-from (``wr``),
  anti-dependency (``rw``) and version-order (``ww``) edges, rebuilt by
  replaying the full trace through a :class:`~repro.obs.witness.engine.
  WitnessEngine` in exact (unsealed, edge-tracking) mode;
* who it waited on — ``lock.block`` holders, blocking chains, deadlocks;
* why it aborted — the typed reason, whether a retry could have helped,
  and any admission/QoS interference;
* its critical path, when the run was traced with spans.

Reports are deterministic: everything derives from the trace's virtual
timestamps and ids, never from wall clocks or file paths, so the same
trace always renders byte-identical output.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.cli import Parser
from repro.errors import RETRYABLE_REASONS
from repro.histories.recorder import RO_ID_OFFSET
from repro.obs.profile import critical_path
from repro.obs.tracer import replay
from repro.obs.witness.engine import WitnessEngine, _norm_key

if TYPE_CHECKING:  # analyze imports this package
    from repro.obs.analyze import TraceIndex

EXPLAIN_SCHEMA = "repro.explain/1"

_KIND_LABEL = {
    "wr": "reads-from",
    "rw": "anti-dependency",
    "ww": "version-order",
}

_RETRYABLE_VALUES = {reason.value for reason in RETRYABLE_REASONS}


def _fmt_ident(ident: int | None) -> str:
    if ident is None:
        return "?"
    if ident >= RO_ID_OFFSET:
        return f"ro:{ident - RO_ID_OFFSET}"
    if ident < 0:
        return f"aborted:{ident}"
    return f"tn:{ident}"


def explain_transaction(events: list[dict[str, Any]], txn: int) -> dict[str, Any]:
    """Build the forensic record for one transaction token.

    Raises ``LookupError`` (with a bounded list of known ids) when the
    trace holds no ``history.*`` events for ``txn`` — the usual cause is a
    run traced without the scheduler's recorder attached.
    """
    from repro.obs.analyze import index_trace  # analyze imports this package

    engine = WitnessEngine(seal=False, track_edges=True)
    replay(events, engine)
    engine.finish()
    index = index_trace(events)

    mine = index.timelines.get(txn, [])
    history = [e for e in mine if e["name"].startswith("history.")]
    if not history:
        known = sorted(
            other
            for other, evs in index.timelines.items()
            if any(e["name"].startswith("history.") for e in evs)
        )
        preview = ", ".join(str(t) for t in known[:20])
        if len(known) > 20:
            preview += f", ... ({len(known)} total)"
        raise LookupError(
            f"no history events for transaction {txn}; "
            f"known transactions: {preview or 'none — was the recorder traced?'}"
        )

    cls = next((e.get("cls") for e in history if e.get("cls")), "rw")
    ident = engine.ident_of(txn)
    outcome = engine.outcome_of(txn) or "in-flight"
    finish = next(
        (e for e in history if e["name"] in ("history.commit", "history.abort")), None
    )

    operations = []
    for event in history:
        if event["name"] == "history.read":
            operations.append(
                {
                    "ts": event.get("ts", 0.0),
                    "op": "read",
                    "key": _norm_key(event.get("key")),
                    "version": event.get("version"),
                }
            )
        elif event["name"] == "history.write":
            operations.append(
                {
                    "ts": event.get("ts", 0.0),
                    "op": "write",
                    "key": _norm_key(event.get("key")),
                }
            )

    edges: dict[str, list[dict[str, Any]]] = {"in": [], "out": []}
    if ident is not None and outcome == "committed":
        incident = engine.edges_of(ident)
        for direction in ("in", "out"):
            for src, dst, kind in incident[direction]:
                edges[direction].append(
                    {
                        "src": src,
                        "dst": dst,
                        "kind": kind,
                        "label": _KIND_LABEL.get(kind, kind),
                    }
                )

    waits, deadlocks = lock_story(index, txn)

    abort = None
    for event in mine:
        if event["name"] == "txn.abort":
            reason = event.get("reason")
            abort = {
                "ts": event.get("ts", 0.0),
                "reason": reason,
                "retryable": reason in _RETRYABLE_VALUES,
                "ro_caused": bool(event.get("ro_caused")),
            }
    qos = [
        {"ts": e.get("ts", 0.0), "event": e["name"]}
        for e in mine
        if e["name"].startswith("qos.")
    ]

    begin_ts = history[0].get("ts", 0.0)
    end_ts = finish.get("ts") if finish is not None else None
    record: dict[str, Any] = {
        "schema": EXPLAIN_SCHEMA,
        "txn": txn,
        "cls": cls,
        "outcome": outcome,
        "ident": ident,
        "begin_ts": begin_ts,
        "end_ts": end_ts,
        "operations": operations,
        "edges": edges,
        "waits": waits,
        "deadlocks": deadlocks,
        "abort": abort,
        "qos": qos,
        "witness": {
            "serializable": engine.serializable,
            "violations": engine.violation_count,
        },
        "critical_path": [],
    }
    root = index.transaction_trees().get(txn)
    if root is not None and root.end is not None:
        record["critical_path"] = [
            {
                "phase": segment.phase,
                "span": segment.node.name,
                "start": segment.start,
                "elapsed": segment.duration,
            }
            for segment in critical_path(root).segments
        ]
    return record


def lock_story(index: TraceIndex, txn: int) -> tuple[list[dict], list[dict]]:
    """``txn``'s lock waits (granted or not) and the deadlocks it was party
    to, read off a :class:`~repro.obs.analyze.TraceIndex`."""
    waits = [
        {
            "ts": wait.block.get("ts", 0.0),
            "key": wait.key,
            "mode": wait.block.get("mode"),
            "holders": list(wait.block.get("holders") or []),
            "granted_ts": wait.granted_ts,
        }
        for wait in index.waits.get(txn, ())
    ]
    deadlocks = [
        {
            "ts": event.get("ts", 0.0),
            "victim": event.get("victim"),
            "cycle": list(event.get("cycle") or []),
        }
        for event in index.deadlocks
        if event.get("victim") == txn or txn in (event.get("cycle") or ())
    ]
    return waits, deadlocks


def render_explain(record: dict[str, Any]) -> str:
    """Human-readable forensics report (stable: pure function of ``record``)."""
    txn = record["txn"]
    lines = [
        f"== transaction T{txn} [{record['cls']}] {record['outcome']} ==",
        f"  identity: {_fmt_ident(record['ident'])}"
        + (f"  span: {record['begin_ts']:g}..{record['end_ts']:g}"
           if record["end_ts"] is not None
           else f"  began: {record['begin_ts']:g} (still open at trace end)"),
    ]

    lines.append(f"-- operations ({len(record['operations'])}) --")
    if not record["operations"]:
        lines.append("  (none recorded)")
    for op in record["operations"]:
        if op["op"] == "read":
            version = op["version"]
            what = "own staged write" if version is None else f"version {version}"
            lines.append(f"  {op['ts']:>10g}  read  {op['key']!r} <- {what}")
        else:
            lines.append(f"  {op['ts']:>10g}  write {op['key']!r}")

    edges = record["edges"]
    total = len(edges["in"]) + len(edges["out"])
    lines.append(f"-- serialization-graph edges ({total}) --")
    if record["outcome"] != "committed":
        lines.append(
            "  (none: the committed projection excludes "
            f"{record['outcome']} transactions)"
        )
    elif not total:
        lines.append("  (none: no conflicting committed neighbors)")
    else:
        for edge in edges["in"]:
            lines.append(
                f"  {_fmt_ident(edge['src'])} -> this   [{edge['kind']}] "
                f"{edge['label']}"
            )
        for edge in edges["out"]:
            lines.append(
                f"  this -> {_fmt_ident(edge['dst'])}   [{edge['kind']}] "
                f"{edge['label']}"
            )

    lines.append(f"-- lock waits ({len(record['waits'])}) --")
    if not record["waits"]:
        lines.append("  (never blocked)")
    for wait in record["waits"]:
        holders = ", ".join(f"T{h}" for h in wait["holders"]) or "?"
        if wait["granted_ts"] is not None:
            tail = f"granted @{wait['granted_ts']:g} after {wait['granted_ts'] - wait['ts']:g}"
        else:
            tail = "never granted"
        mode = f" [{wait['mode']}]" if wait.get("mode") else ""
        lines.append(
            f"  {wait['ts']:>10g}  blocked on {wait['key']!r}{mode} "
            f"held by {holders}; {tail}"
        )
    for deadlock in record["deadlocks"]:
        cycle = " -> ".join(f"T{t}" for t in deadlock["cycle"])
        role = "VICTIM" if deadlock["victim"] == txn else "party"
        lines.append(f"  {deadlock['ts']:>10g}  deadlock ({role}): {cycle}")

    abort = record["abort"]
    if abort is not None:
        lines.append("-- abort --")
        retry = "retryable" if abort["retryable"] else "not retryable"
        lines.append(
            f"  {abort['ts']:>10g}  reason={abort['reason']} ({retry})"
            + ("  caused by a read-only transaction" if abort["ro_caused"] else "")
        )
    for entry in record["qos"]:
        lines.append(f"  {entry['ts']:>10g}  {entry['event']}")

    if record["critical_path"]:
        lines.append("-- critical path --")
        for segment in record["critical_path"]:
            lines.append(
                f"  {segment['phase']:<12} {segment['span']:<24} "
                f"start={segment['start']:g} elapsed={segment['elapsed']:g}"
            )

    witness = record["witness"]
    verdict = "1SR" if witness["serializable"] else (
        f"NOT SERIALIZABLE ({witness['violations']} violation(s))"
    )
    lines.append(f"-- run verdict: {verdict} --")
    return "\n".join(lines)


def txn_id(text: str) -> int:
    """``T12`` or ``12`` -> 12; argparse reports the ``ValueError`` of
    anything else as a usage error naming this function."""
    return int(text.lstrip("Tt"))


def main(argv: list[str]) -> int:
    """``python -m repro explain <trace.jsonl> <txn> [--json]``."""
    from repro.obs.analyze import read_trace  # analyze imports this package

    parser = Parser(
        {
            "json": dict(
                action="store_true",
                help=f"emit the structured record (schema {EXPLAIN_SCHEMA}) instead",
            )
        },
        prog="repro explain",
        description="One transaction's story, from a trace (see docs/witness.md).",
    )
    parser.add_argument("trace", help="JSONL trace file")
    parser.add_argument(
        "txn", type=txn_id,
        help="the id trace timelines show as T<n>; a leading T is accepted",
    )
    args = parser.parse(argv)
    if isinstance(args, int):
        return args
    events = read_trace(args.trace)
    if events is None:
        return 1
    try:
        record = explain_transaction(events, args.txn)
    except LookupError as exc:
        print(str(exc))
        return 1
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(render_explain(record))
    return 0
