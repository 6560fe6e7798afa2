"""Reading a trace back: one pass into a :class:`TraceIndex`, then views.

``index_trace(events)`` adds every event dict of a JSONL trace (written
by :class:`~repro.obs.exporters.JsonlExporter`) or a ring to one
:class:`TraceIndex`, once; ``trace``'s sections and ``--json`` digest,
``explain`` and the flight-recorder bundle all read that index:

* **per-transaction timelines** — every event a transaction touched, with
  its VC registration (``tn`` assignment) paired to the ``vc.advance`` that
  made it visible: the register→advance distance *is* delayed visibility;
* **blocking chains** — who waited on whom, rebuilt from ``lock.block``
  events (which carry the holder set at block time);
* **visibility-lag series** — ``lag = tnc - vtnc - 1`` after every counter
  movement, turning EXP-D's single time-weighted average into an
  inspectable trajectory;
* **span trees and critical paths** (``--spans``) — per-transaction causal
  trees, profiled by :mod:`repro.obs.profile`.

Analysis is tolerant by construction: unknown event names are only counted
and known events missing their expected fields are skipped, because a trace
may come from a newer/older writer or a crashed run — an analyzer that
throws on the trace it was built to debug is useless.

The ``python -m repro trace`` subcommand is :func:`main` here.
"""

from __future__ import annotations

import heapq
import json
from typing import Any, Iterable

from repro.cli import Parser
from repro.obs.profile import aggregate_phase_shares, render_critical_path
from repro.obs.spans import SpanNode, render_tree
from repro.obs.witness.engine import _norm_key

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


def read_trace(path: str) -> TraceDicts | None:
    """:func:`load_trace` for a command: print why and return ``None`` when
    the file cannot be read or holds no events."""
    try:
        events = load_trace(path)
    except (OSError, ValueError) as exc:
        print(f"cannot load trace: {exc}")
        return None
    if not events:
        print(
            f"trace file {path!r} contains no events — "
            "was the run traced (and the exporter closed)?"
        )
        return None
    return events


# -- the index: one pass over the trace ---------------------------------------------


class LockWait:
    """A ``lock.block`` and the ``waited`` ``lock.grant`` that closed it."""

    __slots__ = ("block", "key", "granted_ts")

    def __init__(self, block: dict[str, Any], key: Any):
        self.block = block
        self.key = key
        self.granted_ts: float | None = None  # None: never granted


_SPAN_META = {"name", "ts", "span", "parent", "trace", "op"}
#: Span bookkeeping events, which attach to no span's ``events``.
_SPAN_EVENTS = frozenset(("span.start", "span.end", "courier.redelivery"))


class TraceIndex:
    """What ``trace``, ``explain`` and the flight-recorder bundle read from a
    trace, collected as its event dicts pass through :meth:`add`, each one
    kept as it is given.  Build one with :func:`index_trace`.

    ``visibility`` maps each registered ``tn`` to ``(register_ts,
    visible_ts)``: the number becomes visible at the first ``vc.advance``
    whose ``vtnc`` reaches it, and stays ``None`` if the trace ended first
    or an abort discarded it (a discard is permanent, even across a seam
    that reuses the number; a re-register restarts the pair).  A min-heap
    of the registered-but-invisible numbers keeps the pairing linear.

    ``chains`` holds, at every ``lock.block``, who waits on whom: the event
    carries the holders at block time, and a chain follows waiter -> first
    holder while that holder is itself blocked, so ``[5, 3, 1]`` reads "T5
    waited on T3 which was waiting on T1" (a repeated id is a deadlock in
    flight).

    ``waits`` and ``granted`` are the one place a block is paired with its
    grant: a ``lock.block`` opens a wait for ``(txn, key)`` and the next
    ``waited`` grant of that pair closes it (a client has one request
    outstanding at a time).
    """

    def __init__(self) -> None:
        self.count = 0
        self.first_ts = self.last_ts = 0.0
        self.counts: dict[str, int] = {}  # per name, in first-seen order
        self.timelines: dict[Any, list[dict[str, Any]]] = {}  # txn -> its events
        self.committed: set[Any] = set()  # txns that emitted txn.commit
        self.aborted: set[Any] = set()  # ... and txn.abort
        self.visibility: dict[int, tuple[float, float | None]] = {}
        self._invisible: list[int] = []
        self._discarded: set[int] = set()
        self.lag: list[tuple[float, int]] = []  # (ts, tnc - vtnc - 1) per VC move
        self.chains: list[dict[str, Any]] = []  # {"ts", "key", "chain"}
        self._blocked_on: dict[Any, Any] = {}  # txn -> first holder it waits on
        self.waits: dict[Any, list[LockWait]] = {}  # txn -> its waits, block order
        self.granted: list[LockWait] = []  # the closed waits, grant order
        self._open: dict[tuple[Any, Any], LockWait] = {}
        self.deadlocks: list[dict[str, Any]] = []
        self.sweeps: list[dict[str, Any]] = []
        self._nodes: dict[int, SpanNode] = {}
        self._txn_roots: dict[Any, SpanNode] = {}
        self._roots: list[SpanNode] | None = None

    def add(self, event: dict[str, Any]) -> None:
        name = event["name"]
        ts = event.get("ts", 0.0)
        if not self.count:
            self.first_ts = ts
        self.count += 1
        self.last_ts = ts
        self.counts[name] = self.counts.get(name, 0) + 1
        txn = event.get("txn")
        if txn is not None:
            self.timelines.setdefault(txn, []).append(event)
        on = self._ON.get(name)
        if on is not None:
            on(self, event, txn, ts)
        if name in _SPAN_EVENTS:
            return
        node = self._nodes.get(event.get("span"))
        if node is None:
            node = self._txn_roots.get(txn)
        if node is not None:
            node.events.append(event)

    def _on_vc(self, event, txn, ts) -> None:
        if "lag" in event:
            self.lag.append((ts, event["lag"]))
        number = event.get("number")
        if number is None:
            return
        if event["name"] == "vc.register":
            self.visibility[number] = (ts, None)
            heapq.heappush(self._invisible, number)
        elif event["name"] == "vc.discard":
            self._discarded.add(number)
        else:  # vc.advance to vtnc = number
            invisible, pairs = self._invisible, self.visibility
            while invisible and invisible[0] <= number:
                tn = heapq.heappop(invisible)
                registered, visible = pairs[tn]
                # Skip stale entries: visible since, or discarded.
                if visible is None and tn not in self._discarded:
                    pairs[tn] = (registered, ts)

    def _on_block(self, event, txn, ts) -> None:
        if txn is None:
            return
        holders = event.get("holders") or []
        if holders:
            self._blocked_on[txn] = holders[0]
        chain, seen, cursor = [txn], {txn}, txn
        while cursor in self._blocked_on:
            cursor = self._blocked_on[cursor]
            chain.append(cursor)
            if cursor in seen:  # a cycle: deadlock in flight
                break
            seen.add(cursor)
        self.chains.append({"ts": ts, "key": event.get("key"), "chain": chain})
        wait = LockWait(event, _norm_key(event.get("key")))
        self.waits.setdefault(txn, []).append(wait)
        self._open[txn, wait.key] = wait

    def _on_grant(self, event, txn, ts) -> None:
        if event.get("waited"):
            self._blocked_on.pop(txn, None)
            wait = self._open.pop((txn, _norm_key(event.get("key"))), None)
            if wait is not None:
                wait.granted_ts = ts
                self.granted.append(wait)

    def _on_finish(self, event, txn, ts) -> None:  # lock.release, txn.commit/abort
        if txn is not None:
            self._blocked_on.pop(txn, None)
            if event["name"] == "txn.commit":
                self.committed.add(txn)
            elif event["name"] == "txn.abort":
                self.aborted.add(txn)

    def _on_span(self, event, txn, ts) -> None:
        span_id = event.get("span")
        if event["name"] == "span.start" and span_id is not None:
            fields = {k: v for k, v in event.items() if k not in _SPAN_META and v is not None}
            node = self._nodes[span_id] = SpanNode(
                span_id, event.get("trace", 0), event.get("parent"),
                str(event.get("op", "?")), float(ts), fields,
            )
            if node.name == "txn" and "txn" in fields:
                self._txn_roots[fields["txn"]] = node
        elif (node := self._nodes.get(span_id)) is not None:
            if event["name"] == "span.end":
                node.end = float(ts)
                node.ok = bool(event.get("ok", True))
            elif event["name"] == "courier.redelivery":
                node.redeliveries += 1

    _ON = {
        "vc.register": _on_vc,
        "vc.discard": _on_vc,
        "vc.advance": _on_vc,
        "lock.block": _on_block,
        "lock.grant": _on_grant,
        "lock.release": _on_finish,
        "txn.commit": _on_finish,
        "txn.abort": _on_finish,
        "lock.deadlock": lambda self, event, txn, ts: self.deadlocks.append(event),
        "gc.sweep": lambda self, event, txn, ts: self.sweeps.append(event),
        "span.start": _on_span,
        "span.end": _on_span,
        "courier.redelivery": _on_span,
    }

    def span_roots(self) -> list[SpanNode]:
        """The span trees' roots by start time; built on the first call, so
        read them after the last event.

        Flat events stamped with a ``span`` attach to that node, others to
        their transaction's root ``txn`` span.  Each granted lock wait is a
        synthetic ``lock.wait`` child (ids below 0) of the blocking event's
        span, else of the waiter's root: the grant fires from the
        *releaser's* call stack.  Unfinished spans stay in the tree; orphans
        whose parent never appeared (ring eviction) become roots.
        """
        if self._roots is not None:
            return self._roots
        nodes = self._nodes
        for position, wait in enumerate(self.granted, start=1):
            block = wait.block
            parent = nodes.get(block.get("span")) or self._txn_roots.get(block.get("txn"))
            synthetic = SpanNode(
                -position,
                parent.trace_id if parent is not None else 0,
                parent.span_id if parent is not None else None,
                "lock.wait",
                float(block.get("ts", 0.0)),
                {k: v for k, v in block.items()
                 if k in ("txn", "key", "mode", "site") and v is not None},
            )
            synthetic.end = float(wait.granted_ts)
            synthetic.ok = True
            if parent is not None:
                parent.children.append(synthetic)
            else:
                nodes[synthetic.span_id] = synthetic
        roots: list[SpanNode] = []
        for node in nodes.values():
            parent = nodes.get(node.parent_id) if node.parent_id is not None else None
            if parent is not None:
                parent.children.append(node)
            else:
                roots.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda n: (n.start, n.span_id))
        roots.sort(key=lambda n: (n.start, n.span_id))
        self._roots = roots
        return roots

    def transaction_trees(self) -> dict[Any, SpanNode]:
        """Map ``txn_id`` -> its root ``txn`` span tree."""
        return {
            root.fields["txn"]: root
            for root in self.span_roots()
            if root.name == "txn" and "txn" in root.fields
        }


def index_trace(events: Iterable[dict[str, Any]]) -> TraceIndex:
    """A :class:`TraceIndex` over ``events``, built in one pass."""
    index = TraceIndex()
    for event in events:
        index.add(event)
    return index


# -- per-transaction timelines ---------------------------------------------------


def _event_detail(event: dict[str, Any]) -> str:
    skip = {"name", "ts", "txn", "cls"}
    parts = [f"{k}={event[k]}" for k in event if k not in skip and event[k] is not None]
    return " ".join(parts)


def render_timelines(index: TraceIndex, limit: int = 50) -> str:
    """Per-transaction timelines, VC visibility pairs included."""
    timelines = index.timelines
    if not timelines:
        return "no transaction events in trace"
    lines: list[str] = []
    for position, (txn, txn_events) in enumerate(sorted(timelines.items())):
        if position >= limit:
            lines.append(f"... ({len(timelines) - limit} more transactions)")
            break
        cls = outcome = tn = None
        rows = []
        for event in txn_events:
            cls = cls or event.get("cls")
            if outcome is None and event["name"] in ("txn.commit", "txn.abort"):
                outcome = event["name"].split(".", 1)[1]
            if tn is None:
                tn = event.get("tn")
            detail = _event_detail(event)
            rows.append(f"  {event['ts']:>10g}  {event['name']:<16} {detail}".rstrip())
        first, last = txn_events[0], txn_events[-1]
        lines.append(
            f"T{txn} [{cls or '?'}] {outcome or 'open'}: "
            f"{len(txn_events)} events @{first['ts']:g}..{last['ts']:g}"
        )
        lines.extend(rows)
        if tn is not None and tn in index.visibility:
            reg_ts, vis_ts = index.visibility[tn]
            if vis_ts is None:
                lines.append(f"  {'':>10}  vc.visible       tn={tn} never (trace ended)")
            else:
                lines.append(
                    f"  {vis_ts:>10g}  vc.visible       tn={tn} "
                    f"registered@{reg_ts:g} delay={vis_ts - reg_ts:g}"
                )
    return "\n".join(lines)


# -- blocking chains --------------------------------------------------------------


def render_blocking(index: TraceIndex, limit: int = 50) -> str:
    chains, deadlocks = index.chains, index.deadlocks
    if not chains:
        return "no blocking events in trace"
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


def render_lag_series(index: TraceIndex, max_rows: int = 40, width: int = 40) -> str:
    series = index.lag
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


def render_spans(index: TraceIndex, limit: int = 50) -> str:
    """Per-transaction span trees with their critical-path profiles."""
    trees = index.transaction_trees()
    if not trees:
        return "no span events in trace (was the run traced with spans?)"
    lines: list[str] = []
    for position, (txn, root) in enumerate(sorted(trees.items(), key=lambda kv: str(kv[0]))):
        if position >= limit:
            lines.append(f"... ({len(trees) - limit} more transactions)")
            break
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


def gc_summary(index: TraceIndex) -> dict[str, Any] | None:
    """Aggregate ``gc.sweep`` events into the collector's cost counters.

    Mirrors the :class:`~repro.storage.gc.GarbageCollector` accounting —
    ``versions_scanned`` and ``interior_discarded`` are the bounded
    collector's headline numbers (sweep cost and mid-chain reclamation) —
    but rebuilt from the trace, so a recorded run can be audited offline.
    Returns ``None`` when the trace has no sweep events.
    """
    sweeps = index.sweeps
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


def render_summary(index: TraceIndex) -> str:
    counts = index.counts
    if not counts:
        return "empty trace"
    lines = [f"{index.count} events over {index.last_ts - index.first_ts:g} time units"]
    width = max(len(name) for name in counts)
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {name:<{width}}  {count}")
    gc = gc_summary(index)
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


def trace_report(index: TraceIndex) -> dict[str, Any]:
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
    A transaction that both committed and aborted (a seam reusing its id)
    counts as committed.
    """
    total = len(index.timelines)
    committed = len(index.committed)
    aborted = len(index.aborted - index.committed)
    series = index.lag
    visibility = None
    if series:
        visibility = {
            "samples": len(series),
            "peak": max(lag for _ts, lag in series),
            "mean": round(sum(lag for _ts, lag in series) / len(series), 6),
        }
    return {
        "schema": REPORT_SCHEMA,
        "events": index.count,
        "span": round(index.last_ts - index.first_ts, 9) if index.count else 0.0,
        "counts": index.counts,
        "transactions": {
            "total": total,
            "committed": committed,
            "aborted": aborted,
            "open": total - committed - aborted,
        },
        "blocking": {
            "events": len(index.chains),
            "deadlocks": index.counts.get("lock.deadlock", 0),
            "longest_chain": max((len(c["chain"]) for c in index.chains), default=0),
        },
        "visibility": visibility,
        "gc": gc_summary(index),
    }


#: The ``trace`` sections in print order: flag -> (heading, render(index, limit)).
SECTIONS = {
    "summary": ("summary", lambda index, limit: render_summary(index)),
    "timelines": ("per-transaction timelines", render_timelines),
    "blocking": ("blocking chains", render_blocking),
    "lag": ("visibility lag", lambda index, limit: render_lag_series(index)),
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
    events = read_trace(args.trace)
    if events is None:
        return 1
    index = index_trace(events)
    if args.json:
        print(json.dumps(trace_report(index), sort_keys=True, indent=2))
        return 0
    chosen = [flag for flag in SECTIONS if getattr(args, flag)] or list(SECTIONS)
    blocks = [
        f"== {heading} ==\n" + render(index, args.limit)
        for heading, render in map(SECTIONS.get, chosen)
    ]
    try:
        print("\n\n".join(blocks))
    except BrokenPipeError:  # e.g. `... | head`; the reader got what it wanted
        pass
    return 0
