"""Trace analysis library + the `python -m repro trace` CLI."""

import json

import pytest

import repro.__main__ as repro_main
from repro.obs.analyze import (
    blocking_chains,
    load_trace,
    main,
    render_blocking,
    render_lag_series,
    render_timelines,
    visibility_lag_series,
    visibility_pairs,
)


def write_trace(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    return str(path)


VC_EVENTS = [
    {"name": "vc.register", "ts": 1.0, "number": 1, "tnc": 2, "vtnc": 0, "lag": 1},
    {"name": "vc.register", "ts": 2.0, "number": 2, "tnc": 3, "vtnc": 0, "lag": 2},
    {"name": "vc.advance", "ts": 3.0, "number": 1, "tnc": 3, "vtnc": 1, "lag": 1},
    {"name": "vc.discard", "ts": 4.0, "number": 2, "tnc": 3, "vtnc": 1, "lag": 1},
]


class TestLoadTrace:
    def test_round_trip_and_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "a", "ts": 0.0}\n\n{"name": "b", "ts": 1.0}\n')
        assert [e["name"] for e in load_trace(str(path))] == ["a", "b"]

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "a", "ts": 0.0}\n{"name": "trunc')
        with pytest.raises(ValueError, match=r":2:.*JsonlExporter closed"):
            load_trace(str(path))

    def test_non_event_object_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"no_name": 1}\n')
        with pytest.raises(ValueError, match="not a trace event"):
            load_trace(str(path))


class TestVisibility:
    def test_pairs_honor_discards(self):
        pairs = visibility_pairs(VC_EVENTS)
        assert pairs[1] == (1.0, 3.0)
        assert pairs[2] == (2.0, None)  # discarded: never became visible

    def test_advance_covers_all_numbers_up_to_vtnc(self):
        events = [
            {"name": "vc.register", "ts": 0.0, "number": 1},
            {"name": "vc.register", "ts": 1.0, "number": 2},
            {"name": "vc.advance", "ts": 5.0, "number": 2},  # vtnc jumps to 2
        ]
        pairs = visibility_pairs(events)
        assert pairs[1] == (0.0, 5.0) and pairs[2] == (1.0, 5.0)

    def test_lag_series_and_rendering(self):
        assert visibility_lag_series(VC_EVENTS) == [(1.0, 1), (2.0, 2), (3.0, 1), (4.0, 1)]
        text = render_lag_series(VC_EVENTS)
        assert "peak=2" in text and "4 samples" in text
        assert "##" in text  # bar for the lag-2 sample

    def test_lag_series_resamples_long_runs(self):
        events = [
            {"name": "vc.register", "ts": float(i), "number": i, "lag": 1}
            for i in range(1, 200)
        ]
        text = render_lag_series(events, max_rows=10)
        assert len(text.splitlines()) == 11  # header + 10 resampled rows
        assert "199 samples" in text.splitlines()[0]
        assert text.splitlines()[-1].lstrip().startswith("199")  # last sample kept


class TestTimelines:
    def test_renders_outcome_and_visibility_pair(self):
        events = [
            {"name": "txn.begin", "ts": 0.0, "txn": 7, "cls": "rw"},
            {"name": "vc.register", "ts": 1.0, "number": 3},
            {"name": "txn.commit", "ts": 2.0, "txn": 7, "cls": "rw", "tn": 3},
            {"name": "vc.advance", "ts": 6.0, "number": 3},
        ]
        text = render_timelines(events)
        assert "T7 [rw] commit" in text
        assert "vc.visible       tn=3 registered@1 delay=5" in text

    def test_limit_elides(self):
        events = [
            {"name": "txn.begin", "ts": float(i), "txn": i, "cls": "rw"}
            for i in range(5)
        ]
        text = render_timelines(events, limit=2)
        assert "(3 more transactions)" in text

    def test_open_transaction_never_visible(self):
        events = [
            {"name": "txn.commit", "ts": 0.0, "txn": 1, "cls": "rw", "tn": 9},
            {"name": "vc.register", "ts": 0.0, "number": 9},
        ]
        assert "never (trace ended)" in render_timelines(events)


class TestBlockingChains:
    def test_transitive_chain(self):
        events = [
            {"name": "lock.block", "ts": 1.0, "txn": 3, "key": "x", "holders": [1]},
            {"name": "lock.block", "ts": 2.0, "txn": 5, "key": "y", "holders": [3]},
        ]
        chains = blocking_chains(events)
        assert chains[1]["chain"] == [5, 3, 1]
        assert "T5 -> T3 -> T1" in render_blocking(events)

    def test_grant_clears_waiter(self):
        events = [
            {"name": "lock.block", "ts": 1.0, "txn": 3, "key": "x", "holders": [1]},
            {"name": "lock.grant", "ts": 2.0, "txn": 3, "key": "x", "waited": True},
            {"name": "lock.block", "ts": 3.0, "txn": 5, "key": "y", "holders": [3]},
        ]
        assert blocking_chains(events)[1]["chain"] == [5, 3]

    def test_cycle_detected_in_flight(self):
        events = [
            {"name": "lock.block", "ts": 1.0, "txn": 1, "key": "x", "holders": [2]},
            {"name": "lock.block", "ts": 2.0, "txn": 2, "key": "y", "holders": [1]},
        ]
        assert blocking_chains(events)[1]["chain"] == [2, 1, 2]

    def test_deadlock_events_rendered(self):
        events = [
            {"name": "lock.block", "ts": 1.0, "txn": 1, "key": "x", "holders": [2]},
            {"name": "lock.deadlock", "ts": 2.0, "victim": 1, "cycle": [1, 2], "policy": "youngest"},
        ]
        assert "DEADLOCK victim=T1 cycle: T1 -> T2" in render_blocking(events)


GC_EVENTS = [
    {"name": "gc.sweep", "ts": 10.0, "horizon": 5, "visible": 6, "pins": 1,
     "discarded": 4, "interior": 1, "scanned": 12, "active_readers": 1,
     "live_versions": 20, "max_chain": 3},
    {"name": "gc.sweep", "ts": 20.0, "horizon": 9, "visible": 10, "pins": 0,
     "discarded": 6, "interior": 2, "scanned": 8, "active_readers": 0,
     "live_versions": 16, "max_chain": 2},
]


class TestGcSummary:
    def test_counters_aggregate_across_sweeps(self):
        from repro.obs.analyze import gc_summary

        gc = gc_summary(VC_EVENTS + GC_EVENTS)
        assert gc == {
            "sweeps": 2,
            "versions_discarded": 10,
            "interior_discarded": 3,
            "versions_scanned": 20,
            "scan_per_reclaimed": 2.0,
            "peak_live_versions": 20,
            "final_live_versions": 16,
        }

    def test_none_without_sweep_events(self):
        from repro.obs.analyze import gc_summary

        assert gc_summary(VC_EVENTS) is None

    def test_summary_section_renders_gc_line(self):
        from repro.obs.analyze import render_summary

        text = render_summary(VC_EVENTS + GC_EVENTS)
        assert "gc: 2 sweeps scanned 20 versions" in text
        assert "(3 interior)" in text

    def test_collector_emits_scanned_field(self):
        """End to end: a traced bounded collector puts the scan counter on
        the wire, so offline audits see the same cost the object counted."""
        from repro.core.transaction import Transaction
        from repro.core.version_control import VersionControl
        from repro.obs.exporters import RingBufferExporter
        from repro.obs.tracer import Tracer
        from repro.storage.gc import GarbageCollector
        from repro.storage.mvstore import MVStore

        store = MVStore()
        vc = VersionControl()
        gc = GarbageCollector(store, vc, bounded=True)
        ring = RingBufferExporter(capacity=64)
        gc.tracer = Tracer(exporters=[ring])
        for round_no in range(1, 21):
            txn = Transaction()
            vc.vc_register(txn)
            store.install("k", txn.tn, round_no)
            vc.vc_complete(txn)
        gc.collect()
        sweeps = [e for e in ring.events() if e["name"] == "gc.sweep"]
        assert sweeps and sweeps[-1]["scanned"] == gc.versions_scanned


class TestTraceReport:
    def test_shape_and_determinism(self):
        from repro.obs.analyze import trace_report

        events = VC_EVENTS + GC_EVENTS + [
            {"name": "history.begin", "ts": 1.0, "txn": 1, "cls": "rw"},
            {"name": "txn.begin", "ts": 1.0, "txn": 1, "cls": "rw"},
            {"name": "txn.commit", "ts": 2.0, "txn": 1, "cls": "rw"},
            {"name": "txn.begin", "ts": 3.0, "txn": 2, "cls": "rw"},
            {"name": "txn.abort", "ts": 4.0, "txn": 2, "cls": "rw"},
        ]
        first = trace_report(list(events))
        second = trace_report(list(events))
        assert first == second
        assert first["schema"] == "repro.trace/1"
        assert first["transactions"] == {
            "total": 2, "committed": 1, "aborted": 1, "open": 0,
        }
        assert first["gc"]["versions_scanned"] == 20
        assert first["visibility"]["peak"] == 2

    def test_json_flag_prints_parseable_digest(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", VC_EVENTS + GC_EVENTS)
        assert main([path, "--json"]) == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["schema"] == "repro.trace/1"
        assert digest["events"] == len(VC_EVENTS) + len(GC_EVENTS)
        assert digest["gc"]["sweeps"] == 2
        assert digest["blocking"] == {
            "events": 0, "deadlocks": 0, "longest_chain": 0,
        }


class TestCli:
    def test_all_sections_by_default(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", VC_EVENTS)
        assert main([path]) == 0
        out = capsys.readouterr().out
        for section in ("== summary ==", "== per-transaction timelines ==",
                        "== blocking chains ==", "== visibility lag =="):
            assert section in out

    def test_section_flags_select(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", VC_EVENTS)
        assert main([path, "--lag"]) == 0
        out = capsys.readouterr().out
        assert "== visibility lag ==" in out
        assert "== summary ==" not in out

    def test_missing_file_is_error_not_traceback(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot load trace" in capsys.readouterr().out

    def test_usage_errors(self, capsys):
        assert main([]) == 2
        assert main(["--bogus"]) == 2
        assert main(["a", "--limit"]) == 2
        assert main(["a", "--limit", "abc"]) == 2

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "--timelines" in capsys.readouterr().out

    def test_wired_into_repro_main(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", VC_EVENTS)
        assert repro_main.main(["trace", path, "--summary"]) == 0
        assert "4 events" in capsys.readouterr().out

    def test_empty_file_clear_message_not_traceback(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "contains no events" in out

    def test_unknown_event_types_tolerated(self, tmp_path, capsys):
        events = VC_EVENTS + [
            {"name": "totally.new.event", "ts": 5.0, "whatever": True},
            {"name": "vc.register", "ts": 6.0},  # no number — skipped, not fatal
            {"name": "lock.block", "ts": 7.0},  # no txn — skipped, not fatal
        ]
        path = write_trace(tmp_path / "t.jsonl", events)
        assert main([path]) == 0
        assert "== summary ==" in capsys.readouterr().out


class TestSpansSection:
    SPAN_EVENTS = [
        {"name": "span.start", "ts": 0.0, "span": 1, "parent": None,
         "trace": 1, "op": "txn", "txn": 7},
        {"name": "span.start", "ts": 1.0, "span": 2, "parent": 1,
         "trace": 1, "op": "msg", "channel": "2pc"},
        {"name": "span.end", "ts": 3.0, "span": 2, "trace": 1, "ok": True},
        {"name": "span.end", "ts": 4.0, "span": 1, "trace": 1, "ok": True},
    ]

    def test_spans_flag_renders_trees_and_critical_path(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", self.SPAN_EVENTS)
        assert main([path, "--spans"]) == 0
        out = capsys.readouterr().out
        assert "== span trees & critical paths ==" in out
        assert "msg[2pc]" in out
        assert "network" in out  # critical-path phase attribution

    def test_spans_included_in_default_sections(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", self.SPAN_EVENTS)
        assert main([path]) == 0
        assert "== span trees & critical paths ==" in capsys.readouterr().out

    def test_spanless_trace_says_so(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", VC_EVENTS)
        assert main([path, "--spans"]) == 0
        assert "no span events" in capsys.readouterr().out
