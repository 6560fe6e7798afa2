"""ObsPipeline: composition, NULL degradation, deterministic close, watch CLI."""

import io
import json

from repro.obs.events import record
from repro.obs.exporters import JsonlExporter
from repro.obs.pipeline import ObsPipeline
from repro.obs.slo import SLOEngine, ZeroObjective
from repro.obs.slo.watch import main as watch_main
from repro.obs.tracer import NULL_TRACER
from repro.protocols.registry import make_scheduler
from repro.sim.engine import Simulator


class TestPipeline:
    def test_degrades_to_null_tracer_with_no_exporters(self):
        pipeline = ObsPipeline(sim=Simulator())
        assert pipeline.tracer is NULL_TRACER
        assert not pipeline.enabled
        assert pipeline.events() == []
        pipeline.close()  # harmless

    def test_ring_and_virtual_clock(self):
        sim = Simulator()
        pipeline = ObsPipeline(sim=sim, ring=64)

        def ticker():
            yield 5.0
            pipeline.tracer.emit("tick")

        sim.spawn(ticker(), name="ticker")
        sim.run()
        pipeline.close()
        [event] = pipeline.events()
        assert event == {"name": "tick", "ts": 5.0}

    def test_attach_detach_round_trip(self):
        db = make_scheduler("vc-2pl")
        pipeline = ObsPipeline(ring=256)
        pipeline.attach(db)
        txn = db.begin()
        db.write(txn, "x", 1).result()
        db.commit(txn).result()
        pipeline.close()
        assert db.tracer is NULL_TRACER  # detached on close
        names = {event["name"] for event in pipeline.events()}
        assert "txn.begin" in names and "txn.commit" in names

    def test_close_is_idempotent_and_finishes_engine(self):
        engine = SLOEngine([ZeroObjective("z", "blocked.ro")], window=10.0)
        pipeline = ObsPipeline(ring=16, engine=engine)
        pipeline.tracer.emit("txn.block", 1, "ro", "lock")
        pipeline.close()
        pipeline.close()
        assert engine.finished
        assert len(engine.breaches) == 1

    def test_engine_finished_even_on_null_path(self):
        engine = SLOEngine([ZeroObjective("z", "blocked.ro")], window=10.0)
        pipeline = ObsPipeline(engine=engine)
        assert pipeline.enabled  # an engine is an exporter
        pipeline.close()
        assert engine.finished

    def test_context_manager(self):
        with ObsPipeline(ring=8) as pipeline:
            pipeline.tracer.emit("a")
        assert len(pipeline.events()) == 1

    def test_jsonl_stream_flushes_on_close(self):
        stream = io.StringIO()
        with ObsPipeline(jsonl=stream) as pipeline:
            pipeline.tracer.emit("a", i=1)
            pipeline.tracer.emit("b", i=2)
        lines = stream.getvalue().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]


class TestJsonlDeterministicClose:
    def test_close_exactly_once(self, tmp_path):
        path = tmp_path / "t.jsonl"
        exporter = JsonlExporter(str(path))
        exporter.export(record({"name": "a", "ts": 0.0}))
        exporter.close()
        exporter.close()  # second close is a no-op, not an error
        exporter.export(record({"name": "b", "ts": 1.0}))  # post-close export dropped
        rows = path.read_text().splitlines()
        assert len(rows) == 1

    def test_borrowed_stream_flushed_not_closed(self):
        stream = io.StringIO()
        exporter = JsonlExporter(stream)
        exporter.export(record({"name": "a", "ts": 0.0}))
        exporter.close()
        assert not stream.closed
        assert stream.getvalue().endswith("\n")


class TestWatchCli:
    def _write_trace(self, path, events):
        with open(path, "w", encoding="utf-8") as stream:
            for event in events:
                stream.write(json.dumps(event) + "\n")

    def test_clean_trace_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.jsonl"
        self._write_trace(
            path,
            [
                {"name": "txn.begin", "ts": 1.0, "txn": 1, "cls": "ro"},
                {"name": "txn.commit", "ts": 2.0, "txn": 1, "cls": "ro"},
            ],
        )
        assert watch_main([str(path), "--window", "10"]) == 0
        assert "slo verdict: ok" in capsys.readouterr().out

    def test_breach_exits_three_and_writes_bundle(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        self._write_trace(
            path,
            [
                {"name": "txn.block", "ts": 1.0, "txn": 1, "cls": "ro"},
                {"name": "noop", "ts": 25.0},
            ],
        )
        bundles = tmp_path / "bundles"
        code = watch_main(
            [str(path), "--window", "10", "--bundle-dir", str(bundles)]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "BREACHED" in out
        assert list(bundles.glob("watch_*_ro_blocking.jsonl"))

    def test_json_output_is_byte_identical_across_runs(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_trace(
            path,
            [
                {"name": "txn.begin", "ts": float(i), "txn": i, "cls": "ro"}
                for i in range(30)
            ]
            + [
                {"name": "txn.commit", "ts": i + 0.5, "txn": i, "cls": "ro"}
                for i in range(30)
            ],
        )
        assert watch_main([str(path), "--json"]) == 0
        first = capsys.readouterr().out
        assert watch_main([str(path), "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)

    def test_strict_fails_on_expected_breach(self, tmp_path):
        path = tmp_path / "spike.jsonl"
        # An rw-latency spike against the EWMA baseline: expected breach.
        events = []
        for i in range(20):
            begin = i * 10.0 + 1.0
            dur = 1.0 if i < 15 else 50.0
            events.append({"name": "txn.begin", "ts": begin, "txn": i, "cls": "rw"})
            for j in range(5):  # min_count padding, distinct txn ids
                pad = 1000 + i * 10 + j
                events.append(
                    {"name": "txn.begin", "ts": begin, "txn": pad, "cls": "rw"}
                )
                events.append(
                    {"name": "txn.commit", "ts": begin + dur, "txn": pad, "cls": "rw"}
                )
            events.append(
                {"name": "txn.commit", "ts": begin + dur, "txn": i, "cls": "rw"}
            )
        self._write_trace(path, sorted(events, key=lambda e: e["ts"]))
        assert watch_main([str(path), "--window", "10", "--profile", "faults"]) == 0
        assert (
            watch_main(
                [str(path), "--window", "10", "--profile", "faults", "--strict"]
            )
            == 3
        )

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert watch_main([str(tmp_path / "nope.jsonl")]) == 1

    def test_usage_errors_print_to_stdout_and_return_two(self, capsys):
        assert watch_main(["--bogus"]) == 2
        assert watch_main([]) == 2
        assert watch_main(["t.jsonl", "--window"]) == 2
        assert watch_main(["t.jsonl", "--profile", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out.count("usage: repro watch") == 4
        assert captured.err == ""
        assert watch_main(["--help"]) == 0
        assert "--bundle-dir DIR" in capsys.readouterr().out

    def test_empty_trace_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert watch_main([str(path)]) == 1
        assert "no events" in capsys.readouterr().out
