"""The one-pass trace index against the walks it replaced.

The references below are the per-view readers ``repro.obs.analyze`` had
before every view read one :class:`~repro.obs.analyze.TraceIndex`:
``visibility_pairs`` (which rescanned every registered number at each
``vc.advance``), ``blocking_chains``, ``visibility_lag_series``,
``gc_summary``, ``explain``'s lock loop (waits keyed by key, one
transaction at a time) and ``build_span_trees`` (waits keyed by
transaction), kept here the way ``tests/cc/test_detection_equivalence.py``
keeps the full-search graph.  Generated streams cross seams (timestamps
regress and numbers are reused), re-register and discard numbers, mix
waited and unwaited grants with releases, commits, aborts and deadlocks, and
use list-valued keys (a JSONL round trip turns tuple keys into lists).  A
transaction has at most one lock request outstanding, as every scheduler's
client issues one operation at a time: under that rule the index's one
``(txn, key)`` pairing gives both old pairings' answers.
"""

import operator
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.analyze import gc_summary, index_trace, load_trace
from repro.obs.spans import SpanNode
from repro.obs.witness.engine import _norm_key
from repro.obs.witness.explain import lock_story

# -- the replaced readers ------------------------------------------------------------


def reference_visibility_pairs(events):
    pairs = {}
    discarded = set()
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


def reference_blocking_chains(events):
    blocked_on = {}
    chains = []
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
                    chain.append(nxt)
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


def reference_lag_series(events):
    return [
        (event.get("ts", 0.0), event["lag"])
        for event in events
        if event.get("name") in ("vc.register", "vc.advance", "vc.discard")
        and "lag" in event
    ]


def reference_gc_summary(events):
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


def reference_explain_locks(events, txn):
    waits = []
    pending_block = {}
    deadlocks = []
    for event in events:
        name = event.get("name")
        if name == "lock.block" and event.get("txn") == txn:
            entry = {
                "ts": event.get("ts", 0.0),
                "key": _norm_key(event.get("key")),
                "mode": event.get("mode"),
                "holders": list(event.get("holders") or []),
                "granted_ts": None,
            }
            waits.append(entry)
            pending_block[entry["key"]] = entry
        elif name == "lock.grant" and event.get("txn") == txn and event.get("waited"):
            entry = pending_block.pop(_norm_key(event.get("key")), None)
            if entry is not None:
                entry["granted_ts"] = event.get("ts", 0.0)
        elif name == "lock.deadlock":
            cycle = list(event.get("cycle") or [])
            if event.get("victim") == txn or txn in cycle:
                deadlocks.append(
                    {"ts": event.get("ts", 0.0), "victim": event.get("victim"), "cycle": cycle}
                )
    return waits, deadlocks


_SPAN_META = {"name", "ts", "span", "parent", "trace", "op"}


def reference_span_trees(events):
    nodes: dict[int, SpanNode] = {}
    txn_roots: dict[Any, SpanNode] = {}
    open_blocks: dict[Any, dict[str, Any]] = {}
    waits: list[tuple[dict[str, Any], float]] = []
    for event in events:
        name = event.get("name")
        if name == "span.start":
            span_id = event.get("span")
            if span_id is None:
                continue
            fields = {
                k: v for k, v in event.items() if k not in _SPAN_META and v is not None
            }
            node = SpanNode(
                span_id, event.get("trace", 0), event.get("parent"),
                str(event.get("op", "?")), float(event.get("ts", 0.0)), fields,
            )
            nodes[span_id] = node
            if node.name == "txn" and "txn" in fields:
                txn_roots[fields["txn"]] = node
        elif name == "span.end":
            node = nodes.get(event.get("span"))
            if node is not None:
                node.end = float(event.get("ts", 0.0))
                node.ok = bool(event.get("ok", True))
        elif name == "courier.redelivery":
            node = nodes.get(event.get("span"))
            if node is not None:
                node.redeliveries += 1
        else:
            if name == "lock.block" and "txn" in event:
                open_blocks[event["txn"]] = event
            elif name == "lock.grant" and event.get("waited") and "txn" in event:
                block = open_blocks.pop(event["txn"], None)
                if block is not None:
                    waits.append((block, float(event.get("ts", 0.0))))
            span_id = event.get("span")
            if span_id is not None and span_id in nodes:
                nodes[span_id].events.append(event)
            elif "txn" in event and event["txn"] in txn_roots:
                txn_roots[event["txn"]].events.append(event)
    for index, (block, grant_ts) in enumerate(waits):
        parent = nodes.get(block.get("span"))
        if parent is None:
            parent = txn_roots.get(block.get("txn"))
        synthetic = SpanNode(
            -(index + 1),
            parent.trace_id if parent is not None else 0,
            parent.span_id if parent is not None else None,
            "lock.wait",
            float(block.get("ts", 0.0)),
            {k: v for k, v in block.items() if k in ("txn", "key", "mode", "site") and v is not None},
        )
        synthetic.end = grant_ts
        synthetic.ok = True
        if parent is not None:
            parent.children.append(synthetic)
        else:
            nodes[synthetic.span_id] = synthetic
    roots = []
    for node in nodes.values():
        parent = nodes.get(node.parent_id) if node.parent_id is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.start, n.span_id))
    roots.sort(key=lambda n: (n.start, n.span_id))
    return roots


def shape(roots):
    """Every node of a forest, depth-first, with what it holds."""
    return [
        (node.span_id, node.parent_id, node.name, node.start, node.end, node.ok,
         node.fields, node.redeliveries, [c.span_id for c in node.children],
         [id(e) for e in node.events])
        for root in roots
        for node in root.walk()
    ]


# -- generated streams -------------------------------------------------------------

TXNS = (1, 2, 3)
KEYS = ("x", ["g", "x"], ["g", "y"])

op = st.one_of(
    st.tuples(st.sampled_from(["vc.register", "vc.advance", "vc.discard"]),
              st.integers(1, 8), st.booleans()),
    st.tuples(st.just("block"), st.sampled_from(TXNS), st.sampled_from(KEYS),
              st.lists(st.sampled_from(TXNS), max_size=2)),
    st.tuples(st.just("grant"), st.sampled_from(TXNS), st.sampled_from(KEYS)),
    st.tuples(st.sampled_from(["begin", "commit", "abort", "release"]),
              st.sampled_from(TXNS)),
    st.tuples(st.just("deadlock"), st.lists(st.sampled_from(TXNS), min_size=2, max_size=3)),
    st.tuples(st.just("sweep"), st.integers(0, 5), st.integers(0, 9), st.integers(0, 30)),
    st.tuples(st.just("seam"), st.integers(0, 3)),
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.5, 1.0])),
    st.tuples(st.just("stray"), st.sampled_from(["vc.register", "vc.advance", "lock.block", "lock.grant"])),
)


def events_of(ops):
    """Trace lines for drawn ops, holding each transaction to one
    outstanding lock request: a block only while none is, a waited grant
    only for the one that is."""
    events, ts, span = [], 0.0, 0
    outstanding: dict[int, Any] = {}
    root: dict[int, int] = {}
    for drawn in ops:
        kind = drawn[0]
        if kind == "tick":
            ts += drawn[1]
        elif kind == "seam":
            ts = float(drawn[1])
        elif kind.startswith("vc."):
            event = {"name": kind, "ts": ts, "number": drawn[1]}
            if drawn[2]:
                event["lag"] = drawn[1] % 3
            events.append(event)
        elif kind == "block":
            _, txn, key, holders = drawn
            if txn in outstanding:
                continue
            outstanding[txn] = key
            event = {"name": "lock.block", "ts": ts, "txn": txn, "key": key,
                     "mode": "X", "holders": holders}
            if txn in root and len(holders) == 1:
                event["span"] = root[txn]
            events.append(event)
        elif kind == "grant":
            _, txn, key = drawn
            if txn in outstanding:  # the request it is waiting on
                events.append({"name": "lock.grant", "ts": ts, "txn": txn,
                               "key": outstanding.pop(txn), "waited": True})
            else:
                events.append({"name": "lock.grant", "ts": ts, "txn": txn,
                               "key": key, "waited": False})
        elif kind == "begin":
            span += 1
            root[drawn[1]] = span
            events.append({"name": "span.start", "ts": ts, "span": span, "parent": None,
                           "trace": span, "op": "txn", "txn": drawn[1]})
        elif kind in ("commit", "abort"):
            txn = drawn[1]
            outstanding.pop(txn, None)
            events.append({"name": f"txn.{kind}", "ts": ts, "txn": txn})
            if txn in root:
                events.append({"name": "span.end", "ts": ts, "span": root.pop(txn),
                               "ok": kind == "commit"})
        elif kind == "release":
            events.append({"name": "lock.release", "ts": ts, "txn": drawn[1], "key": "x"})
        elif kind == "deadlock":
            cycle = drawn[1]
            events.append({"name": "lock.deadlock", "ts": ts, "victim": cycle[-1],
                           "cycle": cycle, "policy": "youngest"})
        elif kind == "sweep":
            _, discarded, scanned, live = drawn
            events.append({"name": "gc.sweep", "ts": ts, "discarded": discarded,
                           "interior": discarded // 2, "scanned": scanned,
                           "live_versions": live})
        else:  # a known name missing the field its readers need
            events.append({"name": drawn[1], "ts": ts})
    return events


@settings(max_examples=300, deadline=None)
@given(st.lists(op, max_size=80))
def test_the_index_gives_every_replaced_readers_answer(ops):
    events = events_of(ops)
    index = index_trace(events)
    assert list(index.visibility.items()) == list(reference_visibility_pairs(events).items())
    assert index.chains == reference_blocking_chains(events)
    assert index.lag == reference_lag_series(events)
    assert gc_summary(index) == reference_gc_summary(events)
    for txn in TXNS:
        assert lock_story(index, txn) == reference_explain_locks(events, txn)
    assert shape(index.span_roots()) == shape(reference_span_trees(events))


def test_a_trace_line_missing_a_field_reads_the_default(tmp_path):
    """A span line from another writer may lack ``op``, ``trace`` or
    ``ok``: the index keeps the line as decoded, so its defaults hold."""
    path = tmp_path / "partial.jsonl"
    path.write_text(
        '{"name":"span.start","ts":0.0,"span":1,"parent":null}\n'
        '{"name":"span.end","ts":2.0,"span":1}\n'
        '{"name":"lock.deadlock","ts":3.0,"victim":4}\n'
    )
    index = index_trace(load_trace(str(path)))
    (root,) = index.span_roots()
    assert (root.name, root.trace_id, root.end, root.ok) == ("?", 0, 2.0, True)
    assert index.deadlocks == [{"name": "lock.deadlock", "ts": 3.0, "victim": 4}]


def test_a_seam_keeps_discards_and_restarts_reregistered_pairs():
    events = [
        {"name": "vc.register", "ts": 1.0, "number": 1},
        {"name": "vc.register", "ts": 2.0, "number": 2},
        {"name": "vc.discard", "ts": 3.0, "number": 2},
        {"name": "vc.advance", "ts": 4.0, "number": 2},
        {"name": "vc.register", "ts": 0.0, "number": 1},  # seam: ts regresses
        {"name": "vc.register", "ts": 0.5, "number": 2},
        {"name": "vc.advance", "ts": 1.0, "number": 2},
    ]
    assert index_trace(events).visibility == {1: (0.0, 1.0), 2: (0.5, None)}
    assert index_trace(events).visibility == reference_visibility_pairs(events)


def test_one_pairing_closes_a_wait_per_txn_and_key():
    events = [
        {"name": "lock.block", "ts": 1.0, "txn": 3, "key": ["g", "x"], "holders": [1]},
        {"name": "lock.grant", "ts": 2.0, "txn": 3, "key": ["g", "x"], "waited": True},
        {"name": "lock.block", "ts": 3.0, "txn": 3, "key": "y", "holders": [1]},
        {"name": "txn.abort", "ts": 4.0, "txn": 3},  # a victim: never granted
        {"name": "lock.grant", "ts": 5.0, "txn": 3, "key": "y", "waited": False},
        {"name": "lock.block", "ts": 6.0, "txn": 3, "key": "y", "holders": [2]},
        {"name": "lock.grant", "ts": 7.0, "txn": 3, "key": "y", "waited": True},
    ]
    index = index_trace(events)
    assert [(w.key, w.granted_ts) for w in index.waits[3]] == [
        (("g", "x"), 2.0), ("y", None), ("y", 7.0),
    ]
    assert [w.block["ts"] for w in index.granted] == [1.0, 6.0]
    assert lock_story(index, 3) == reference_explain_locks(events, 3)
    assert shape(index.span_roots()) == shape(reference_span_trees(events))


# -- the pairing is linear -----------------------------------------------------------


def _counting(op):
    def compare(self, other):
        _Counted.comparisons += 1
        return op(int(self), int(other))

    return compare


class _Counted(int):
    """A transaction number that counts the order comparisons made on it:
    a measure of the pairing's work that does not depend on the machine."""

    comparisons = 0
    __lt__, __le__ = _counting(operator.lt), _counting(operator.le)
    __gt__, __ge__ = _counting(operator.gt), _counting(operator.ge)


def _vc_trace(n):
    """``n`` registrations queued behind the first, then ``n`` advances by one:
    every advance finds the rest of the queue still invisible."""
    numbers = [_Counted(tn) for tn in range(1, n + 1)]
    events = [
        {"name": "vc.register", "ts": float(tn), "number": tn, "lag": tn} for tn in numbers
    ]
    events += [
        {"name": "vc.advance", "ts": float(n + tn), "number": tn, "lag": n - tn}
        for tn in numbers
    ]
    return events


def _pairing_comparisons(events):
    _Counted.comparisons = 0
    index_trace(events)
    return _Counted.comparisons


def test_visibility_pairing_is_linear():
    """Twice the register/advance pairs make fewer than three times the
    number comparisons (the rescan of every pair at every advance made four
    times as many)."""
    n = 1_000
    small, large = _vc_trace(n), _vc_trace(2 * n)
    assert len(index_trace(large).visibility) == 2 * n
    assert 0 < _pairing_comparisons(large) < 3 * _pairing_comparisons(small)
