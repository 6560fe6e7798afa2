"""Tracer core: event stamping, clocks, the null tracer."""

import pytest

from repro.obs import NULL_TRACER, NullTracer, RingBufferExporter, Tracer
from repro.obs.spans import SpanContext


class TestTracer:
    def test_emit_stamps_and_fans_out(self):
        a, b = RingBufferExporter(), RingBufferExporter()
        tracer = Tracer(exporters=[a, b])
        tracer.emit("x.one", k=1)
        tracer.emit("x.two", k=2)
        for ring in (a, b):
            events = ring.events()
            assert [e["name"] for e in events] == ["x.one", "x.two"]
            assert events[0] == {"name": "x.one", "ts": 0.0, "k": 1}
        assert a._buffer[0] is b._buffer[0]  # one record, handed to both

    def test_default_clock_is_deterministic_monotone(self):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        for _ in range(3):
            tracer.emit("tick")
        assert [e["ts"] for e in ring.events()] == [0.0, 1.0, 2.0]

    def test_custom_clock(self):
        now = {"t": 10.5}
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring], clock=lambda: now["t"])
        tracer.emit("e")
        now["t"] = 11.0
        tracer.emit("e")
        assert [e["ts"] for e in ring.events()] == [10.5, 11.0]

    def test_emit_without_exporters_is_cheap_noop(self):
        tracer = Tracer()
        tracer.emit("nobody.listens", x=1)  # must not raise, must not tick
        ring = RingBufferExporter()
        tracer.add_exporter(ring)
        tracer.emit("someone.listens")
        assert ring.events()[0]["ts"] == 0.0  # clock untouched by the no-op emit

    def test_add_remove_exporter(self):
        ring = RingBufferExporter()
        tracer = Tracer()
        tracer.add_exporter(ring)
        tracer.emit("a")
        tracer.remove_exporter(ring)
        tracer.emit("b")
        assert [e["name"] for e in ring.events()] == ["a"]

    def test_event_is_the_jsonl_dict_in_field_order(self):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        returned = tracer.emit("vc.advance", 3, 4, 3, 0)
        assert returned == ("vc.advance", 0.0, (3, 4, 3, 0), None, None)
        assert ring._buffer[0] is returned
        [event] = ring.events()
        assert list(event.items()) == [
            ("name", "vc.advance"), ("ts", 0.0),
            ("number", 3), ("tnc", 4), ("vtnc", 3), ("lag", 0),
        ]

    def test_optional_fields_then_the_ambient_span_follow_the_required(self):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        tracer.active_span = SpanContext(trace_id=7, span_id=9)
        tracer.emit("wal.force", 2, 5, torn=True)
        tracer.emit("span.end", 1, 7, 0.5, True)  # carries its own span: not stamped
        assert [list(event) for event in ring.events()] == [
            ["name", "ts", "made_durable", "durable", "torn", "span", "trace"],
            ["name", "ts", "span", "trace", "elapsed", "ok"],
        ]
        assert ring.events()[0]["span"] == 9 and ring.events()[1]["span"] == 1


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("anything", x=1)  # no-op

    def test_shared_singleton_rejects_exporters(self):
        with pytest.raises(ValueError):
            NULL_TRACER.add_exporter(RingBufferExporter())

    def test_fresh_null_tracer_also_disabled(self):
        assert NullTracer().enabled is False
