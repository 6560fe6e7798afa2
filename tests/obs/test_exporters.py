"""Exporters: ring buffer bounds, JSONL round trips, console summaries."""

import io
import json

import pytest

from repro.obs import (
    ConsoleSummaryExporter,
    JsonlExporter,
    RingBufferExporter,
    Tracer,
)


class TestRingBuffer:
    def test_bounded_with_drop_accounting(self):
        ring = RingBufferExporter(capacity=3)
        for i in range(5):
            ring.export({"name": "e", "ts": float(i), "i": i})
        assert len(ring) == 3
        assert ring.dropped == 2
        assert [e["i"] for e in ring.events()] == [2, 3, 4]

    def test_clear(self):
        ring = RingBufferExporter(capacity=2)
        for i in range(4):
            ring.export({"name": "e", "ts": float(i)})
        ring.clear()
        assert len(ring) == 0 and ring.dropped == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferExporter(capacity=0)


class TestJsonl:
    def test_stream_round_trip(self):
        stream = io.StringIO()
        exporter = JsonlExporter(stream)
        tracer = Tracer(exporters=[exporter])
        tracer.emit("vc.register", number=1, lag=0)
        tracer.emit("txn.commit", txn=4, cls="rw")
        exporter.close()  # borrowed stream: flushed, not closed
        lines = stream.getvalue().splitlines()
        assert exporter.exported == 2
        assert json.loads(lines[0]) == {"name": "vc.register", "ts": 0.0, "number": 1, "lag": 0}
        assert json.loads(lines[1])["txn"] == 4

    def test_file_path_and_context_manager(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlExporter(str(path)) as exporter:
            exporter.export({"name": "a", "ts": 0.0})
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [{"name": "a", "ts": 0.0}]

    def test_non_json_fields_fall_back_to_repr(self):
        stream = io.StringIO()
        exporter = JsonlExporter(stream)
        exporter.export({"name": "lock.grant", "ts": 0.0, "key": {"acct", 7}})
        row = json.loads(stream.getvalue())
        assert row["key"] == repr({"acct", 7})


class TestConsoleSummary:
    def _fill(self, exporter):
        for ts, name in [(1.0, "txn.begin"), (2.0, "txn.begin"), (5.0, "txn.commit")]:
            exporter.export({"name": name, "ts": ts})

    def test_counts_and_summary_text(self):
        exporter = ConsoleSummaryExporter(stream=io.StringIO())
        self._fill(exporter)
        assert exporter.counts() == {"txn.begin": 2, "txn.commit": 1}
        text = exporter.summary()
        assert "3 events over 4 time units" in text
        assert text.index("txn.begin") < text.index("txn.commit")  # sorted by count

    def test_close_prints_once(self):
        stream = io.StringIO()
        exporter = ConsoleSummaryExporter(stream=stream)
        self._fill(exporter)
        exporter.close()
        exporter.close()
        assert stream.getvalue().count("trace summary") == 1

    def test_empty_summary(self):
        assert "no events" in ConsoleSummaryExporter(stream=io.StringIO()).summary()
