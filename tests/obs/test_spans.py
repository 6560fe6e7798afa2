"""Causal spans: runtime, envelope propagation, tree reconstruction.

Covers the span layer on its own (start/end events, ambient parenting,
explicit activation), the courier envelope (context sealed at dispatch,
surviving FaultyCourier retransmissions and duplicates), and the
reconstruction of span trees from flat event streams — including the
synthetic ``lock.wait`` spans and orphan promotion.
"""

from repro.bench.runner import SimConfig, run_simulation
from repro.faults.courier import FaultyCourier, RetryPolicy
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.obs.analyze import index_trace
from repro.obs.exporters import RingBufferExporter
from repro.obs.spans import (
    NULL_SPAN,
    activate,
    bind_envelope,
    render_tree,
    start_span,
    transaction_trees,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.protocols.registry import make_scheduler
from repro.sim.engine import Simulator
from repro.workload.mixes import balanced


def traced(capacity: int = 4096):
    ring = RingBufferExporter(capacity=capacity)
    return Tracer(exporters=[ring]), ring


class TestSpanRuntime:
    def test_disabled_tracer_returns_shared_null_span(self):
        assert start_span(NULL_TRACER, "txn") is NULL_SPAN
        # NULL_SPAN is inert: end and context-manager use are no-ops.
        with start_span(NULL_TRACER, "txn") as span:
            span.end()
        assert NULL_TRACER.active_span is None

    def test_start_end_event_pair(self):
        tracer, ring = traced()
        span = start_span(tracer, "txn", txn=7)
        span.end(ok=True)
        start, end = ring.events()
        assert start["name"] == "span.start" and end["name"] == "span.end"
        assert start["op"] == "txn" and start["txn"] == 7
        assert start["parent"] is None
        assert end["span"] == start["span"]
        assert end["trace"] == start["trace"]
        assert end["ok"] is True

    def test_end_is_idempotent(self):
        tracer, ring = traced()
        span = start_span(tracer, "txn")
        span.end()
        span.end(ok=False)
        ends = [e for e in ring.events() if e["name"] == "span.end"]
        assert len(ends) == 1 and ends[0]["ok"] is True

    def test_context_manager_activates_and_parents(self):
        tracer, ring = traced()
        with start_span(tracer, "txn") as outer:
            assert tracer.active_span is outer.context
            start_span(tracer, "commit").end()
        assert tracer.active_span is None
        starts = [e for e in ring.events() if e["name"] == "span.start"]
        assert starts[1]["parent"] == starts[0]["span"]
        assert starts[1]["trace"] == starts[0]["trace"]

    def test_parent_none_forces_fresh_trace(self):
        tracer, _ = traced()
        with start_span(tracer, "txn") as ambient:
            root = start_span(tracer, "txn", parent=None)
        assert root.parent_id is None
        assert root.context.trace_id != ambient.context.trace_id

    def test_flat_emit_stamped_with_active_span(self):
        tracer, ring = traced()
        with start_span(tracer, "txn") as span:
            tracer.emit("wal.force", 1, 1)
        event = [e for e in ring.events() if e["name"] == "wal.force"][0]
        assert event["span"] == span.context.span_id
        assert event["trace"] == span.context.trace_id

    def test_activate_restores_previous_context(self):
        tracer, _ = traced()
        a = start_span(tracer, "txn")
        b = start_span(tracer, "txn", parent=None)
        with activate(tracer, a.context):
            assert tracer.active_span is a.context
            with activate(tracer, b.context):
                assert tracer.active_span is b.context
            assert tracer.active_span is a.context
        assert tracer.active_span is None

    def test_activate_none_context_is_noop(self):
        tracer, _ = traced()
        with activate(tracer, None):
            assert tracer.active_span is None


class TestEnvelope:
    def test_first_delivery_ends_msg_span_and_carries_context(self):
        tracer, ring = traced()
        seen = []
        with start_span(tracer, "txn") as root:
            deliver = bind_envelope(
                tracer, lambda: seen.append(tracer.active_span), "2pc"
            )
        deliver()
        events = ring.events()
        msg = [e for e in events if e.get("op") == "msg"][0]
        assert msg["parent"] == root.context.span_id
        assert msg["channel"] == "2pc"
        assert seen[0].span_id == msg["span"]
        ends = [
            e
            for e in events
            if e["name"] == "span.end" and e["span"] == msg["span"]
        ]
        assert len(ends) == 1

    def test_duplicate_delivery_same_context_emits_redelivery(self):
        tracer, ring = traced()
        seen = []
        with start_span(tracer, "txn"):
            deliver = bind_envelope(
                tracer, lambda: seen.append(tracer.active_span), "2pc"
            )
        deliver()
        deliver()
        assert len(seen) == 2
        assert seen[0].span_id == seen[1].span_id
        redeliveries = [
            e for e in ring.events() if e["name"] == "courier.redelivery"
        ]
        assert len(redeliveries) == 1
        assert redeliveries[0]["span"] == seen[0].span_id
        assert redeliveries[0]["n"] == 2


class TestFaultyCourierContext:
    """Span contexts sealed at dispatch survive every fault-layer delivery."""

    def _setup(self, spec, sim=None, retry=None):
        if sim is None:
            sim = Simulator()
        ring = RingBufferExporter(capacity=4096)
        tracer = Tracer(exporters=[ring], clock=lambda: sim.now)
        courier = FaultyCourier(sim, schedule=FaultSchedule(spec=spec), retry=retry)
        courier.tracer = tracer
        return tracer, ring, courier

    def test_duplicate_delivery_keeps_context(self):
        tracer, ring, courier = self._setup(FaultSpec(duplicate=1.0))
        contexts = []
        with start_span(tracer, "txn", txn=1):
            courier.dispatch(
                lambda: contexts.append(tracer.active_span), channel="2pc"
            )
        courier.sim.run()
        assert len(contexts) == 2
        assert contexts[0].span_id == contexts[1].span_id
        redeliveries = [
            e for e in ring.events() if e["name"] == "courier.redelivery"
        ]
        assert len(redeliveries) == 1
        assert redeliveries[0]["span"] == contexts[0].span_id

    def test_retransmission_after_drops_keeps_context(self):
        sim = Simulator()
        tracer, ring, courier = self._setup(
            FaultSpec(drop=1.0), sim=sim, retry=RetryPolicy(max_attempts=3)
        )
        contexts = []
        with start_span(tracer, "txn", txn=1) as root:
            courier.dispatch(
                lambda: contexts.append(tracer.active_span), channel="2pc"
            )
        sim.run()
        assert len(contexts) == 1  # forced through after the retry budget
        events = ring.events()
        msg = [e for e in events if e.get("op") == "msg"][0]
        assert contexts[0].span_id == msg["span"]
        assert msg["parent"] == root.context.span_id
        assert any(e["name"] == "fault.drop" for e in events)
        # The msg span's end stamps the arrival after the backoff delays.
        end = [
            e
            for e in events
            if e["name"] == "span.end" and e["span"] == msg["span"]
        ][0]
        assert end["ts"] > 0.0

    def test_heal_reroutes_without_resealing(self):
        tracer, ring, courier = self._setup(FaultSpec())
        courier.partition("2pc")
        delivered = []
        with start_span(tracer, "txn"):
            courier.dispatch(
                lambda: delivered.append(tracer.active_span), channel="2pc"
            )
        courier.sim.run()
        assert delivered == []
        courier.heal("2pc")
        courier.sim.run()
        assert len(delivered) == 1
        msg_starts = [e for e in ring.events() if e.get("op") == "msg"]
        assert len(msg_starts) == 1  # sealed once at dispatch, not at heal
        assert delivered[0].span_id == msg_starts[0]["span"]

    def test_context_free_dispatch_stays_unsealed(self):
        tracer, ring, courier = self._setup(FaultSpec())
        delivered = []
        courier.dispatch(lambda: delivered.append(tracer.active_span))
        courier.sim.run()
        assert delivered == [None]
        assert not [e for e in ring.events() if e.get("op") == "msg"]


class TestBuildTrees:
    def test_tree_shape_and_transaction_index(self):
        tracer, ring = traced()
        with start_span(tracer, "txn", txn=1):
            with start_span(tracer, "commit"):
                start_span(tracer, "2pc.prepare", site=2).end()
        trees = transaction_trees(ring.events())
        root = trees[1]
        assert root.name == "txn" and root.ok is True
        assert [c.name for c in root.children] == ["commit"]
        leg = root.children[0].children[0]
        assert leg.name == "2pc.prepare" and leg.fields["site"] == 2

    def test_unfinished_span_stays_in_tree(self):
        tracer, ring = traced()
        with start_span(tracer, "txn", txn=1):
            start_span(tracer, "commit")  # never ended — crashed run
        root = transaction_trees(ring.events())[1]
        assert root.children[0].end is None
        assert root.children[0].duration == 0.0

    def test_orphan_promoted_to_root(self):
        events = [
            {"name": "span.start", "ts": 1.0, "span": 42, "parent": 99,
             "trace": 5, "op": "commit"},
            {"name": "span.end", "ts": 2.0, "span": 42, "trace": 5},
        ]
        roots = index_trace(events).span_roots()
        assert [r.span_id for r in roots] == [42]

    def test_synthetic_lock_wait_span(self):
        events = [
            {"name": "span.start", "ts": 0.0, "span": 1, "parent": None,
             "trace": 1, "op": "txn", "txn": 3},
            {"name": "lock.block", "ts": 1.0, "txn": 3, "key": "x",
             "span": 1, "trace": 1},
            {"name": "lock.grant", "ts": 4.0, "txn": 3, "key": "x",
             "waited": True},
            {"name": "span.end", "ts": 5.0, "span": 1, "trace": 1},
        ]
        root = index_trace(events).span_roots()[0]
        waits = [c for c in root.children if c.name == "lock.wait"]
        assert len(waits) == 1
        wait = waits[0]
        assert (wait.start, wait.end) == (1.0, 4.0)
        assert wait.span_id < 0  # synthetic ids never collide with real ones
        assert wait.fields["key"] == "x"

    def test_flat_event_attaches_to_its_span(self):
        tracer, ring = traced()
        with start_span(tracer, "txn", txn=1):
            tracer.emit("wal.force", 1, 1)
        root = transaction_trees(ring.events())[1]
        assert [e["name"] for e in root.events] == ["wal.force"]

    def test_render_tree_smoke(self):
        tracer, ring = traced()
        with start_span(tracer, "txn", txn=1):
            start_span(tracer, "msg", channel="2pc").end()
        root = transaction_trees(ring.events())[1]
        text = render_tree(root)
        assert "txn" in text and "msg[2pc]" in text


class TestBaselineSpans:
    """attach_tracer gives the baseline protocols span trees for free.

    The bench comparator relies on this: every protocol in a suite —
    including the single- and multi-version baselines that predate the
    span layer — must yield committed ``txn`` root spans.
    """

    def _trees_for(self, protocol):
        ring = RingBufferExporter(capacity=65536)
        sim_tracer = Tracer(exporters=[ring])
        run_simulation(
            make_scheduler(protocol),
            balanced(seed=3),
            SimConfig(duration=120.0, check_serializability=False),
            tracer=sim_tracer,
        )
        return transaction_trees(ring.events())

    def test_mv2pl_chan_baseline_produces_span_trees(self):
        trees = self._trees_for("mv2pl-chan")
        committed = [r for r in trees.values() if r.ok is True]
        assert committed, "baseline run produced no committed txn spans"
        assert all(r.name == "txn" for r in committed)

    def test_sv_2pl_baseline_produces_span_trees(self):
        trees = self._trees_for("sv-2pl")
        committed = [r for r in trees.values() if r.ok is True]
        assert committed
        # Single-version 2PL blocks readers too, so lock waits show up as
        # synthetic child spans under contended transactions.
        assert all(r.end is not None for r in committed)
