"""Exporters: ring buffer bounds and JSONL round trips."""

import io
import json

import pytest

from repro.obs import JsonlExporter, RingBufferExporter, Tracer
from repro.obs.events import record


class TestRingBuffer:
    def test_bounded_with_drop_accounting(self):
        ring = RingBufferExporter(capacity=3)
        for i in range(5):
            ring.export(record({"name": "e", "ts": float(i), "i": i}))
        assert len(ring) == 3
        assert ring.dropped == 2
        assert [e["i"] for e in ring.events()] == [2, 3, 4]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferExporter(capacity=0)


class TestJsonl:
    def test_stream_round_trip(self):
        stream = io.StringIO()
        exporter = JsonlExporter(stream)
        tracer = Tracer(exporters=[exporter])
        tracer.emit("vc.register", 1, 2, 0, 1)
        tracer.emit("txn.commit", 4, "rw", 1)
        exporter.close()  # borrowed stream: flushed, not closed
        lines = stream.getvalue().splitlines()
        assert exporter.exported == 2
        assert json.loads(lines[0]) == {
            "name": "vc.register", "ts": 0.0, "number": 1, "tnc": 2, "vtnc": 0, "lag": 1,
        }
        assert json.loads(lines[1])["txn"] == 4

    def test_file_path_and_context_manager(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlExporter(str(path)) as exporter:
            exporter.export(record({"name": "a", "ts": 0.0}))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [{"name": "a", "ts": 0.0}]

    def test_non_json_fields_fall_back_to_repr(self):
        stream = io.StringIO()
        exporter = JsonlExporter(stream)
        exporter.export(record({"name": "lock.grant", "ts": 0.0, "key": {"acct", 7}}))
        row = json.loads(stream.getvalue())
        assert row["key"] == repr({"acct", 7})

