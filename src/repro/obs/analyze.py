"""Trace analysis: timelines, blocking chains, visibility-lag trajectories.

Consumes JSONL traces written by :class:`~repro.obs.exporters.JsonlExporter`
and reconstructs the three views the paper's arguments revolve around:

* **per-transaction timelines** — every event a transaction touched, with
  its VC registration (``tn`` assignment) paired to the ``vc.advance`` that
  made it visible: the register→advance distance *is* delayed visibility;
* **blocking chains** — who waited on whom, rebuilt from ``lock.block``
  events (which carry the holder set at block time) and the interval each
  transaction spent blocked;
* **visibility-lag series** — ``lag = tnc - vtnc - 1`` after every counter
  movement, turning EXP-D's single time-weighted average into an
  inspectable trajectory;
* **span trees and critical paths** (``--spans``) — per-transaction causal
  trees rebuilt by :func:`repro.obs.spans.build_span_trees` and profiled by
  :mod:`repro.obs.profile`.

Analysis is tolerant by construction: unknown event names are ignored and
known events missing their expected fields are skipped, because a trace may
come from a newer/older writer or a crashed run — an analyzer that throws
on the trace it was built to debug is useless.

The ``python -m repro trace`` subcommand is a thin wrapper over
:func:`main` here.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.cli import Parser

TraceDicts = list[dict[str, Any]]


def load_trace(path: str) -> TraceDicts:
    """Read a JSONL trace file into a list of event dicts, in file order.

    Blank lines are skipped; a malformed line raises ``ValueError`` naming
    the line number, because a truncated trace usually means the exporter
    was never closed.
    """
    events: TraceDicts = []
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace line ({exc.msg}); "
                    "was the JsonlExporter closed?"
                ) from None
            if not isinstance(event, dict) or "name" not in event or "ts" not in event:
                raise ValueError(f"{path}:{lineno}: not a trace event: {line[:80]}")
            events.append(event)
    return events


# -- per-transaction timelines ---------------------------------------------------


def visibility_pairs(events: Iterable[dict[str, Any]]) -> dict[int, tuple[float, float | None]]:
    """Map each registered ``tn`` to ``(register_ts, visible_ts)``.

    A transaction number becomes visible at the first ``vc.advance`` whose
    ``vtnc`` reaches it; ``None`` means the trace ended while the number was
    still invisible (or it was discarded by an abort).
    """
    pairs: dict[int, tuple[float, float | None]] = {}
    discarded: set[int] = set()
    for event in events:
        name = event.get("name")
        number = event.get("number")
        if number is None:
            continue
        if name == "vc.register":
            pairs[number] = (event.get("ts", 0.0), None)
        elif name == "vc.discard":
            discarded.add(number)
        elif name == "vc.advance":
            for tn, (reg_ts, vis_ts) in pairs.items():
                if vis_ts is None and tn <= number and tn not in discarded:
                    pairs[tn] = (reg_ts, event.get("ts", 0.0))
    return pairs


def transaction_timelines(events: TraceDicts) -> dict[int, list[dict[str, Any]]]:
    """Group events carrying a ``txn`` field by transaction id, in order."""
    timelines: dict[int, list[dict[str, Any]]] = {}
    for event in events:
        txn = event.get("txn")
        if txn is None:
            continue
        timelines.setdefault(txn, []).append(event)
    return timelines


def _event_detail(event: dict[str, Any]) -> str:
    skip = {"name", "ts", "txn", "cls"}
    parts = [f"{k}={event[k]}" for k in event if k not in skip and event[k] is not None]
    return " ".join(parts)


def render_timelines(events: TraceDicts, limit: int = 50) -> str:
    """Per-transaction timelines, VC visibility pairs included."""
    timelines = transaction_timelines(events)
    if not timelines:
        return "no transaction events in trace"
    pairs = visibility_pairs(events)
    lines: list[str] = []
    for index, (txn, txn_events) in enumerate(sorted(timelines.items())):
        if index >= limit:
            lines.append(f"... ({len(timelines) - limit} more transactions)")
            break
        cls = next((e.get("cls") for e in txn_events if e.get("cls")), "?")
        first, last = txn_events[0], txn_events[-1]
        outcome = next(
            (e["name"].split(".", 1)[1] for e in txn_events
             if e["name"] in ("txn.commit", "txn.abort")),
            "open",
        )
        header = (
            f"T{txn} [{cls}] {outcome}: "
            f"{len(txn_events)} events @{first['ts']:g}..{last['ts']:g}"
        )
        lines.append(header)
        for event in txn_events:
            detail = _event_detail(event)
            lines.append(f"  {event['ts']:>10g}  {event['name']:<16} {detail}".rstrip())
        tn = next((e.get("tn") for e in txn_events if e.get("tn") is not None), None)
        if tn is not None and tn in pairs:
            reg_ts, vis_ts = pairs[tn]
            if vis_ts is None:
                lines.append(f"  {'':>10}  vc.visible       tn={tn} never (trace ended)")
            else:
                lines.append(
                    f"  {vis_ts:>10g}  vc.visible       tn={tn} "
                    f"registered@{reg_ts:g} delay={vis_ts - reg_ts:g}"
                )
    return "\n".join(lines)


# -- blocking chains --------------------------------------------------------------


def blocking_chains(events: TraceDicts) -> list[dict[str, Any]]:
    """Reconstruct who-waits-on-whom chains at every ``lock.block`` event.

    ``lock.block`` carries the holder set at block time.  A chain follows
    waiter → holder edges while the holder is itself blocked, so a result
    like ``[5, 3, 1]`` reads "T5 waited on T3 which was waiting on T1".
    Each entry: ``{"ts", "key", "chain"}``.
    """
    blocked_on: dict[int, int] = {}  # txn -> first holder it currently waits on
    chains: list[dict[str, Any]] = []
    for event in events:
        name = event.get("name")
        if name == "lock.block":
            txn = event.get("txn")
            if txn is None:
                continue
            holders = event.get("holders") or []
            if holders:
                blocked_on[txn] = holders[0]
            chain = [txn]
            seen = {txn}
            cursor = txn
            while cursor in blocked_on:
                nxt = blocked_on[cursor]
                if nxt in seen:
                    chain.append(nxt)  # cycle (deadlock in flight)
                    break
                chain.append(nxt)
                seen.add(nxt)
                cursor = nxt
            chains.append(
                {"ts": event.get("ts", 0.0), "key": event.get("key"), "chain": chain}
            )
        elif name == "lock.grant" and event.get("waited"):
            blocked_on.pop(event.get("txn"), None)
        elif name in ("txn.abort", "txn.commit", "lock.release"):
            txn = event.get("txn")
            if txn is not None:
                blocked_on.pop(txn, None)
    return chains


def render_blocking(events: TraceDicts, limit: int = 50) -> str:
    chains = blocking_chains(events)
    if not chains:
        return "no blocking events in trace"
    deadlocks = [e for e in events if e["name"] == "lock.deadlock"]
    lines = [f"{len(chains)} blocking events, {len(deadlocks)} deadlocks"]
    for entry in chains[:limit]:
        arrow = " -> ".join(f"T{t}" for t in entry["chain"])
        lines.append(f"  {entry['ts']:>10g}  key={entry['key']!r:<12} {arrow}")
    if len(chains) > limit:
        lines.append(f"  ... ({len(chains) - limit} more)")
    for event in deadlocks:
        cycle = " -> ".join(f"T{t}" for t in event.get("cycle", ()))
        lines.append(
            f"  {event['ts']:>10g}  DEADLOCK victim=T{event.get('victim')} cycle: {cycle}"
        )
    return "\n".join(lines)


# -- visibility lag ----------------------------------------------------------------


def visibility_lag_series(events: TraceDicts) -> list[tuple[float, int]]:
    """``(ts, lag)`` after every VC counter movement, in trace order."""
    return [
        (event.get("ts", 0.0), event["lag"])
        for event in events
        if event.get("name") in ("vc.register", "vc.advance", "vc.discard")
        and "lag" in event
    ]


def render_lag_series(events: TraceDicts, max_rows: int = 40, width: int = 40) -> str:
    series = visibility_lag_series(events)
    if not series:
        return "no version-control events in trace"
    peak = max(lag for _ts, lag in series)
    mean = sum(lag for _ts, lag in series) / len(series)
    lines = [
        f"visibility lag: {len(series)} samples, peak={peak}, "
        f"mean-per-event={mean:.2f}"
    ]
    if len(series) > max_rows:  # resample evenly, keeping first and last
        step = (len(series) - 1) / (max_rows - 1)
        picked = [series[round(i * step)] for i in range(max_rows)]
    else:
        picked = series
    scale = width / peak if peak else 0.0
    for ts, lag in picked:
        bar = "#" * int(round(lag * scale))
        lines.append(f"  {ts:>10g}  {lag:>4d} {bar}")
    return "\n".join(lines)


# -- span trees + critical paths ---------------------------------------------------


def render_spans(events: TraceDicts, limit: int = 50) -> str:
    """Per-transaction span trees with their critical-path profiles.

    Imports lazily so the flat-event sections keep working even if the span
    modules are unavailable (e.g. a stripped vendored copy).
    """
    from repro.obs.profile import aggregate_phase_shares, render_critical_path
    from repro.obs.spans import render_tree, transaction_trees

    trees = transaction_trees(events)
    if not trees:
        return "no span events in trace (was the run traced with spans?)"
    lines: list[str] = []
    shown = 0
    for txn, root in sorted(trees.items(), key=lambda kv: str(kv[0])):
        if shown >= limit:
            lines.append(f"... ({len(trees) - limit} more transactions)")
            break
        shown += 1
        lines.append(render_tree(root))
        if root.end is not None:
            lines.append(render_critical_path(root))
        lines.append("")
    shares = aggregate_phase_shares(trees.values())
    if shares:
        summary = "  ".join(f"{p}={s:.1%}" for p, s in shares.items())
        lines.append(f"aggregate critical-path phase shares: {summary}")
    return "\n".join(lines).rstrip("\n")


# -- garbage-collection cost --------------------------------------------------------


def gc_summary(events: TraceDicts) -> dict[str, Any] | None:
    """Aggregate ``gc.sweep`` events into the collector's cost counters.

    Mirrors the :class:`~repro.storage.gc.GarbageCollector` accounting —
    ``versions_scanned`` and ``interior_discarded`` are the bounded
    collector's headline numbers (sweep cost and mid-chain reclamation) —
    but rebuilt from the trace, so a recorded run can be audited offline.
    Returns ``None`` when the trace has no sweep events.
    """
    sweeps = [e for e in events if e.get("name") == "gc.sweep"]
    if not sweeps:
        return None
    discarded = sum(e.get("discarded", 0) for e in sweeps)
    scanned = sum(e.get("scanned", 0) for e in sweeps)
    return {
        "sweeps": len(sweeps),
        "versions_discarded": discarded,
        "interior_discarded": sum(e.get("interior", 0) for e in sweeps),
        "versions_scanned": scanned,
        "scan_per_reclaimed": (
            round(scanned / discarded, 6) if discarded else float(scanned)
        ),
        "peak_live_versions": max(e.get("live_versions", 0) for e in sweeps),
        "final_live_versions": sweeps[-1].get("live_versions", 0),
    }


# -- summary + CLI -----------------------------------------------------------------


def render_summary(events: TraceDicts) -> str:
    counts: dict[str, int] = {}
    for event in events:
        counts[event["name"]] = counts.get(event["name"], 0) + 1
    if not counts:
        return "empty trace"
    span = events[-1]["ts"] - events[0]["ts"]
    lines = [f"{len(events)} events over {span:g} time units"]
    width = max(len(name) for name in counts)
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {name:<{width}}  {count}")
    gc = gc_summary(events)
    if gc is not None:
        lines.append(
            f"gc: {gc['sweeps']} sweeps scanned {gc['versions_scanned']} versions, "
            f"discarded {gc['versions_discarded']} "
            f"({gc['interior_discarded']} interior), "
            f"{gc['scan_per_reclaimed']:g} scanned/reclaimed, "
            f"peak live {gc['peak_live_versions']}"
        )
    return "\n".join(lines)


#: Schema tag for the ``--json`` report; bump on breaking shape changes.
REPORT_SCHEMA = "repro.trace/1"


def trace_report(events: TraceDicts) -> dict[str, Any]:
    """Machine-readable trace digest for ``trace --json``.

    Shape (all keys always present)::

        schema              "repro.trace/1"
        events              total event count
        span                last ts - first ts (virtual time)
        counts              {event name: count}
        transactions        {total, committed, aborted, open}
        blocking            {events, deadlocks, longest_chain}
        visibility          {samples, peak, mean} | null  (no vc.* events)
        gc                  gc_summary() block | null     (no gc.sweep events)

    The digest is a pure function of the event stream — two runs over the
    same trace are byte-identical, so it can be diffed or gated in CI.
    """
    counts: dict[str, int] = {}
    for event in events:
        counts[event["name"]] = counts.get(event["name"], 0) + 1
    timelines = transaction_timelines(events)
    committed = aborted = 0
    for txn_events in timelines.values():
        outcomes = {e["name"] for e in txn_events}
        if "txn.commit" in outcomes:
            committed += 1
        elif "txn.abort" in outcomes:
            aborted += 1
    chains = blocking_chains(events)
    series = visibility_lag_series(events)
    visibility = None
    if series:
        visibility = {
            "samples": len(series),
            "peak": max(lag for _ts, lag in series),
            "mean": round(sum(lag for _ts, lag in series) / len(series), 6),
        }
    return {
        "schema": REPORT_SCHEMA,
        "events": len(events),
        "span": round(events[-1]["ts"] - events[0]["ts"], 9) if events else 0.0,
        "counts": counts,
        "transactions": {
            "total": len(timelines),
            "committed": committed,
            "aborted": aborted,
            "open": len(timelines) - committed - aborted,
        },
        "blocking": {
            "events": len(chains),
            "deadlocks": counts.get("lock.deadlock", 0),
            "longest_chain": max((len(c["chain"]) for c in chains), default=0),
        },
        "visibility": visibility,
        "gc": gc_summary(events),
    }


#: The ``trace`` sections in print order: flag -> (heading, render(events, limit)).
SECTIONS = {
    "summary": ("summary", lambda events, limit: render_summary(events)),
    "timelines": ("per-transaction timelines", render_timelines),
    "blocking": ("blocking chains", render_blocking),
    "lag": ("visibility lag", lambda events, limit: render_lag_series(events)),
    "spans": ("span trees & critical paths", render_spans),
}


def main(argv: list[str]) -> int:
    """``python -m repro trace <file> [--timelines] [--blocking] [--lag] [--spans] [--summary] [--json]``."""
    parser = Parser(
        {
            **{
                flag: dict(action="store_true", help=f"print the {heading} section")
                for flag, (heading, _render) in SECTIONS.items()
            },
            "limit": dict(
                type=int, default=50, metavar="N",
                help="cap the rows of timelines, blocking and spans (default 50)",
            ),
            "json": dict(
                action="store_true",
                help="print trace_report's JSON digest instead; section flags are ignored",
            ),
        },
        prog="repro trace",
        description="Analyze a JSONL trace; with no section flag, every section prints.",
    )
    parser.add_argument("trace", help="JSONL trace file written by JsonlExporter")
    args = parser.parse(argv)
    if isinstance(args, int):
        return args
    try:
        events = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"cannot load trace: {exc}")
        return 1
    if not events:
        print(
            f"trace file {args.trace!r} contains no events — "
            "was the run traced (and the exporter closed)?"
        )
        return 1
    if args.json:
        print(json.dumps(trace_report(events), sort_keys=True, indent=2))
        return 0
    chosen = [flag for flag in SECTIONS if getattr(args, flag)] or list(SECTIONS)
    blocks = [
        f"== {heading} ==\n" + render(events, args.limit)
        for heading, render in map(SECTIONS.get, chosen)
    ]
    try:
        print("\n\n".join(blocks))
    except BrokenPipeError:  # e.g. `... | head`; the reader got what it wanted
        pass
    return 0
