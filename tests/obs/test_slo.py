"""The streaming SLO engine: windows, hysteresis, determinism, bundles."""

import json
import pathlib
import re

import pytest

import repro.obs.slo.engine as engine_module

from repro.obs.slo import (
    Breach,
    Ewma,
    FlightRecorder,
    Hysteresis,
    MaxObjective,
    PercentileObjective,
    RatioObjective,
    SLOEngine,
    ZeroObjective,
    bench_objectives,
    default_objectives,
    faults_objectives,
    memory_objectives,
    overload_objectives,
    replication_objectives,
)
from repro.obs.analyze import load_trace
from repro.obs.exporters import JsonlExporter
from repro.obs.tracer import Tracer


def _ingest(engine, events):
    for event in events:
        engine.export(event)
    engine.finish()
    return engine


def _txn_events(pairs, cls="ro"):
    """(begin_ts, commit_ts) pairs -> interleaved begin/commit event dicts."""
    events = []
    for i, (begin, commit) in enumerate(pairs):
        events.append({"name": "txn.begin", "ts": begin, "txn": i, "cls": cls})
        events.append({"name": "txn.commit", "ts": commit, "txn": i, "cls": cls})
    return sorted(events, key=lambda e: e["ts"])


class TestWindowStatistic:
    """A windowed objective keeps its window's samples exactly, as floats,
    and judges them by ``repro.sim.stats.nearest_rank``, the rule of every
    ``Summary`` quantile a report prints."""

    @staticmethod
    def _close(objective, samples):
        for value in samples:
            objective.observe(objective.signals[0], value)
        return objective.close_window().value

    def test_nearest_rank_quantiles_and_max_as_floats(self):
        samples = [5, 1, 3, 2, 4]  # ints in, floats out
        for quantile, expected in [(0.5, 3.0), (0.99, 5.0), (0.2, 1.0)]:
            objective = PercentileObjective("p", "s", quantile, ceiling=100.0)
            value = self._close(objective, samples)
            assert value == expected and type(value) is float  # ceil(q*5)-th
        value = self._close(MaxObjective("m", "s", ceiling=100.0), samples)
        assert value == 5.0 and type(value) is float

    def test_a_closed_window_starts_empty(self):
        objective = MaxObjective("m", "s", ceiling=1.0, min_count=1)
        assert self._close(objective, [7.0]) == 7.0
        assert objective.close_window().value is None  # nothing observed since
        assert self._close(objective, [0.5]) == 0.5

    def test_kind_and_threshold_text_name_the_statistic(self):
        p99 = PercentileObjective("p", "s", 0.99, ceiling=5.0, baseline=Ewma())
        top = MaxObjective("m", "s", ceiling=5.0, baseline=Ewma())
        assert (p99.kind, p99.threshold_text()) == (
            "percentile", "p99 <= 5 and p99 <= ewma*(1+1)"
        )
        assert (top.kind, top.threshold_text()) == (
            "max", "max <= 5 and max <= ewma*(1+2)"
        )


class TestEwma:
    def test_warmup_gates_readiness(self):
        ewma = Ewma(alpha=0.5, warmup=2)
        assert not ewma.ready
        assert ewma.relative_deviation(100.0) == 0.0  # cold: no verdicts
        ewma.update(10.0)
        assert not ewma.ready
        ewma.update(10.0)
        assert ewma.ready
        assert ewma.relative_deviation(30.0) == pytest.approx(2.0)

    def test_first_update_seeds_the_mean(self):
        ewma = Ewma(alpha=0.3, warmup=1)
        ewma.update(8.0)
        assert ewma.mean == 8.0
        ewma.update(4.0)
        assert ewma.mean == pytest.approx(8.0 + 0.3 * (4.0 - 8.0))

    def test_zero_mean_yields_no_deviation(self):
        ewma = Ewma(warmup=1)
        ewma.update(0.0)
        assert ewma.relative_deviation(5.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError):
            Ewma(warmup=0)


class TestHysteresis:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hysteresis(breach_after=0)

    def test_breach_fires_only_after_consecutive_violations(self):
        objective = MaxObjective(
            "lag", "vc.lag", ceiling=5.0, hysteresis=Hysteresis(2, 1)
        )
        engine = SLOEngine([objective], window=10.0)
        # Windows: [0,10) violates, [10,20) clean, [20,30)+[30,40) violate.
        events = [
            {"name": "vc.register", "ts": 1.0, "lag": 9},
            {"name": "vc.register", "ts": 11.0, "lag": 1},
            {"name": "vc.register", "ts": 21.0, "lag": 9},
            {"name": "vc.register", "ts": 31.0, "lag": 9},
        ]
        _ingest(engine, events)
        # The isolated violation at [0,10) must not breach (streak reset).
        assert len(engine.breaches) == 1
        assert engine.breaches[0].window_start == 30.0

    def test_recovery_mid_window_does_not_clear_until_streak(self):
        objective = MaxObjective(
            "lag", "vc.lag", ceiling=5.0, hysteresis=Hysteresis(1, 2)
        )
        engine = SLOEngine([objective], window=10.0)
        events = [
            {"name": "vc.register", "ts": 1.0, "lag": 9},   # breach @ [0,10)
            # Recovery *mid-window*: the clean sample at 12 closes window
            # [10,20) clean — one good window, streak 1 of 2: still breached.
            {"name": "vc.register", "ts": 12.0, "lag": 1},
            {"name": "vc.register", "ts": 22.0, "lag": 1},  # streak 2: clears
            {"name": "vc.register", "ts": 35.0, "lag": 1},
        ]
        _ingest(engine, events)
        assert len(engine.breaches) == 1
        # Cleared exactly at the end of the second clean window.
        assert engine.breaches[0].cleared_at == 30.0
        assert engine.report()["objectives"]["lag"]["status"] == "ok"

    def test_breach_exactly_at_window_boundary_buckets_forward(self):
        """A violating sample at exactly k*W belongs to window k, not k-1."""
        objective = MaxObjective("lag", "vc.lag", ceiling=5.0)
        engine = SLOEngine([objective], window=10.0)
        events = [
            {"name": "vc.register", "ts": 0.0, "lag": 1},
            {"name": "vc.register", "ts": 10.0, "lag": 9},  # boundary sample
            {"name": "vc.register", "ts": 25.0, "lag": 1},
        ]
        _ingest(engine, events)
        assert len(engine.breaches) == 1
        breach = engine.breaches[0]
        assert (breach.window_start, breach.window_end) == (10.0, 20.0)


class TestObjectives:
    def test_zero_objective_counts_empty_windows_as_clean(self):
        objective = ZeroObjective(
            "ro_blocking", "blocked.ro", hysteresis=Hysteresis(1, 2)
        )
        engine = SLOEngine([objective], window=10.0)
        events = [
            {"name": "txn.block", "ts": 1.0, "txn": 1, "cls": "ro"},
            # Two event-less windows pass before ts=35: with ZeroObjective
            # they are *verdicts* (0 occurrences), so the clear streak runs.
            {"name": "txn.begin", "ts": 35.0, "txn": 2, "cls": "ro"},
        ]
        _ingest(engine, events)
        assert len(engine.breaches) == 1
        assert engine.breaches[0].cleared_at is not None
        assert not engine.ok  # the breach still happened and is unexpected

    def test_ratio_objective_needs_min_denominator(self):
        objective = RatioObjective(
            "abort_rate", "abort.rw", "begin.rw", ceiling=0.5, min_denominator=4
        )
        engine = SLOEngine([objective], window=10.0)
        events = []
        # Window [0,10): 3 begins, 3 aborts — below min_denominator, no verdict.
        for i in range(3):
            events.append({"name": "txn.begin", "ts": 1.0 + i, "txn": i, "cls": "rw"})
            events.append({"name": "txn.abort", "ts": 2.0 + i, "txn": i, "cls": "rw"})
        # Window [10,20): 4 begins, 4 aborts — ratio 1.0 > 0.5 violates.
        for i in range(4):
            events.append(
                {"name": "txn.begin", "ts": 11.0 + i, "txn": 10 + i, "cls": "rw"}
            )
            events.append(
                {"name": "txn.abort", "ts": 12.0 + i, "txn": 10 + i, "cls": "rw"}
            )
        events.append({"name": "txn.begin", "ts": 25.0, "txn": 99, "cls": "rw"})
        _ingest(engine, events)
        state = engine.report()["objectives"]["abort_rate"]
        assert state["windows"] == 1  # only the window that met min_denominator
        assert len(engine.breaches) == 1

    def test_percentile_objective_tracks_latency_pairing(self):
        objective = PercentileObjective(
            "ro_p99", "latency.ro", 0.99, ceiling=5.0, min_count=2
        )
        engine = SLOEngine([objective], window=10.0)
        _ingest(
            engine,
            _txn_events([(0.5, 1.0), (1.0, 9.0)]) + [{"name": "noop", "ts": 15.0}],
        )
        # p99 of {0.5, 8.0} = 8.0 > 5.0 -> breach.
        assert len(engine.breaches) == 1
        assert engine.breaches[0].value == pytest.approx(8.0)

    def test_expected_breaches_do_not_fail_ok(self):
        objective = MaxObjective("lag", "replica.lag", ceiling=2.0, expected=True)
        engine = SLOEngine([objective], window=10.0)
        _ingest(
            engine,
            [
                {"name": "replica.lag", "ts": 1.0, "lag": 9},
                {"name": "noop", "ts": 15.0},
            ],
        )
        assert len(engine.breaches) == 1
        assert engine.expected_breaches and not engine.unexpected_breaches
        assert engine.ok
        assert engine.report()["ok"] is True

    def test_duplicate_objective_names_rejected(self):
        with pytest.raises(ValueError):
            SLOEngine(
                [ZeroObjective("a", "x"), ZeroObjective("a", "y")], window=1.0
            )

    def test_profiles_construct(self):
        for objectives in (
            default_objectives(),
            overload_objectives(capacity=4, ro_p99_ceiling=10.0),
            replication_objectives(max_staleness=8, writers=4),
            faults_objectives(),
            bench_objectives(ro_never_blocks=True),
            bench_objectives(ro_never_blocks=False),
            memory_objectives(),
            memory_objectives(live_versions_bound=64),
        ):
            names = [o.name for o in objectives]
            assert len(set(names)) == len(names)
            SLOEngine(objectives, window=5.0)

    def test_bench_profile_blocking_expectation_follows_protocol_family(self):
        hard = {o.name: o.expected for o in bench_objectives(ro_never_blocks=True)}
        soft = {o.name: o.expected for o in bench_objectives(ro_never_blocks=False)}
        assert hard["ro_blocking"] is False
        assert soft["ro_blocking"] is True


class TestMemoryProfile:
    def test_snapshot_revoked_is_an_expected_anomaly(self):
        # Revocations under pressure are working-as-designed degradation:
        # flight-recorded as breaches, but they never fail the verdict.
        events = [
            {"name": "snapshot.revoked", "ts": 1.0, "txn": 9, "sn": 3,
             "cause": "memory_pressure"},
            {"name": "noop", "ts": 25.0},
        ]
        engine = _ingest(SLOEngine(memory_objectives(), window=10.0), events)
        assert [b.objective for b in engine.breaches] == ["snapshot_revoked"]
        assert engine.breaches[0].expected
        assert engine.unexpected_breaches == []
        assert engine.report()["ok"]

    def test_live_versions_ceiling_is_a_hard_objective(self):
        events = [
            {"name": "gc.sweep", "ts": 1.0, "live_versions": 70, "max_chain": 3,
             "horizon": 0, "visible": 0, "pins": 0, "discarded": 0,
             "interior": 0, "active_readers": 0},
            {"name": "noop", "ts": 25.0},
        ]
        engine = _ingest(
            SLOEngine(memory_objectives(live_versions_bound=64), window=10.0),
            events,
        )
        breached = [b.objective for b in engine.unexpected_breaches]
        assert "gc_live_versions" in breached
        assert not engine.report()["ok"]

    def test_live_versions_under_the_bound_is_clean(self):
        events = [
            {"name": "gc.sweep", "ts": 1.0, "live_versions": 40, "max_chain": 3,
             "horizon": 0, "visible": 0, "pins": 0, "discarded": 0,
             "interior": 0, "active_readers": 0},
            {"name": "noop", "ts": 25.0},
        ]
        engine = _ingest(
            SLOEngine(memory_objectives(live_versions_bound=64), window=10.0),
            events,
        )
        assert engine.unexpected_breaches == []
        assert engine.report()["ok"]


class TestEngineStream:
    def test_live_export_and_replay_agree(self, tmp_path):
        """One engine live on a tracer and one fed the trace that tracer
        wrote: the same ``export`` takes both, and the reports match."""
        events = _txn_events([(1.0, 3.0), (11.0, 12.0), (21.0, 29.0)]) + [
            {"name": "vc.advance", "ts": 22.0, "lag": 3},
            {"name": "noop", "ts": 45.0},
        ]
        path = str(tmp_path / "trace.jsonl")
        live = SLOEngine(default_objectives(), window=10.0)
        now = [0.0]
        tracer = Tracer(exporters=[live, JsonlExporter(path)], clock=lambda: now[0])
        for event in events:
            now[0] = event["ts"]
            tracer.emit(
                event["name"],
                **{k: v for k, v in event.items() if k not in ("name", "ts")},
            )
        tracer.close()
        replay = _ingest(SLOEngine(default_objectives(), window=10.0), load_trace(path))
        assert live.events_seen == replay.events_seen == len(events)
        assert live.report() == replay.report()

    def test_ts_regression_restarts_window_clock(self):
        """A campaign's next drill restarts virtual time at 0 mid-stream."""
        objective = MaxObjective("lag", "vc.lag", ceiling=100.0)
        engine = SLOEngine([objective], window=10.0)
        events = [
            {"name": "txn.begin", "ts": 95.0, "txn": 1, "cls": "ro"},
            {"name": "vc.register", "ts": 99.0, "lag": 1},
            # clock restarts: the dangling begin above must not pair with
            # a commit from the new run
            {"name": "vc.register", "ts": 2.0, "lag": 2},
            {"name": "txn.commit", "ts": 3.0, "txn": 1, "cls": "ro"},
            {"name": "noop", "ts": 25.0},
        ]
        latency = PercentileObjective(
            "ro_p99", "latency.ro", 0.99, ceiling=1000.0, min_count=1
        )
        engine = SLOEngine([objective, latency], window=10.0)
        _ingest(engine, events)
        report = engine.report()
        # No latency sample: the cross-run pair was dropped at the seam.
        assert report["objectives"]["ro_p99"]["windows"] == 0
        assert report["objectives"]["lag"]["windows"] == 2

    def test_gap_fast_forward_does_not_hang(self):
        engine = SLOEngine([ZeroObjective("z", "blocked.ro")], window=0.001)
        _ingest(
            engine,
            [
                {"name": "txn.begin", "ts": 0.0, "txn": 1, "cls": "ro"},
                {"name": "txn.begin", "ts": 1e9, "txn": 2, "cls": "ro"},
            ],
        )
        assert engine.windows_closed < 10_000

    def test_lock_wait_depth_tracks_live_blocked_set(self):
        objective = MaxObjective("depth", "lock.wait_depth", ceiling=100.0)
        engine = SLOEngine([objective], window=100.0)
        _ingest(
            engine,
            [
                {"name": "lock.block", "ts": 1.0, "txn": 1},
                {"name": "lock.block", "ts": 2.0, "txn": 2},
                {"name": "lock.grant", "ts": 3.0, "txn": 1, "waited": True},
                {"name": "lock.block", "ts": 4.0, "txn": 3},
            ],
        )
        assert engine.report()["objectives"]["depth"]["worst"] == 2.0

    def test_finish_is_idempotent_and_freezes(self):
        engine = SLOEngine([ZeroObjective("z", "blocked.ro")], window=10.0)
        engine.export({"name": "txn.block", "ts": 1.0, "txn": 1, "cls": "ro"})
        engine.finish()
        closed = engine.windows_closed
        engine.finish()
        engine.export({"name": "txn.block", "ts": 2.0, "txn": 2, "cls": "ro"})
        assert engine.windows_closed == closed
        assert len(engine.breaches) == 1


class TestSignalRoutes:
    """The stateless routing table, and the two taxonomy tables that
    document it (the engine docstring and docs/slo.md)."""

    #: Signals derived by the stateful txn.* / lock.* handlers.
    STATEFUL = {
        "latency.ro", "latency.rw", "blocked.ro", "blocked.rw",
        "begin.*", "commit.*", "abort.*", "lock.wait_depth",
    }

    @pytest.mark.parametrize(
        "event,field,signal",
        [(e, f, s) for e, routes in engine_module.SIGNAL_ROUTES.items() for f, s in routes],
    )
    def test_every_route_delivers_its_sample(self, event, field, signal):
        seen = []

        class Probe(MaxObjective):
            def observe(self, name, value):
                seen.append((name, value))

        engine = SLOEngine([Probe("probe", signal, ceiling=1.0)], window=10.0)
        fields = {} if field is None else {field: 7}
        engine.export({"name": event, "ts": 1.0, **fields})
        assert seen == [(signal, 1.0 if field is None else 7)]
        if field is not None:  # an absent field is no sample, not a zero
            engine.export({"name": event, "ts": 2.0})
            assert len(seen) == 1

    @staticmethod
    def _rows(text, tick):
        """Table rows as sets of their ``tick``-quoted tokens."""
        return [set(re.findall(f"{tick}([^`]+){tick}", row)) for row in text]

    def _doc_rows(self):
        doc = engine_module.__doc__
        table = doc.split("=================  =====")[2]
        rows, current = [], ""
        for line in table.splitlines()[1:]:
            if line.startswith("``"):
                rows.append(current)
                current = ""
            current += line + "\n"
        rows.append(current)
        return self._rows([r for r in rows if r.strip()], "``")

    def _md_rows(self):
        path = pathlib.Path(__file__).resolve().parents[2] / "docs" / "slo.md"
        section = path.read_text(encoding="utf-8").split("## Signals")[1].split("\n## ")[0]
        lines = [l for l in section.splitlines() if l.startswith("| `")]
        return self._rows(lines, "`")

    @pytest.mark.parametrize("source", ["_doc_rows", "_md_rows"])
    def test_taxonomy_tables_match_the_routing_table(self, source):
        rows = getattr(self, source)()
        assert len(rows) >= 15
        routes = [
            {event, signal} | ({field} if field else set())
            for event, pairs in engine_module.SIGNAL_ROUTES.items()
            for field, signal in pairs
        ]
        for route in routes:  # every stateless route is a documented row
            assert any(route <= row for row in rows), f"undocumented: {route}"
        for row in rows:  # and no row documents a route that does not exist
            assert row & self.STATEFUL or any(route <= row for route in routes), row


class TestDeterminism:
    def _trace(self):
        events = _txn_events(
            [(i * 3.0, i * 3.0 + 1.0 + (i % 4)) for i in range(40)], cls="ro"
        )
        events += [
            {"name": "vc.advance", "ts": 7.0 + 11 * i, "lag": (i * 5) % 9}
            for i in range(12)
        ]
        events += [
            {"name": "txn.block", "ts": 61.0, "txn": 900, "cls": "ro"},
            {"name": "txn.block", "ts": 62.0, "txn": 901, "cls": "ro"},
        ]
        return sorted(events, key=lambda e: e["ts"])

    def _engine(self, tmp_path, tag):
        return SLOEngine(
            default_objectives(),
            window=10.0,
            recorder=FlightRecorder(capacity=4096),
            bundle_dir=str(tmp_path / tag),
            bundle_prefix="t",
        )

    def test_replay_is_byte_identical(self, tmp_path):
        """Same trace, two replays: equal reports AND byte-equal bundles."""
        first = _ingest(self._engine(tmp_path, "a"), self._trace())
        second = _ingest(self._engine(tmp_path, "b"), self._trace())
        assert first.report() == second.report()
        assert json.dumps(first.report(), sort_keys=True) == json.dumps(
            second.report(), sort_keys=True
        )
        assert first.bundle_paths and second.bundle_paths
        for path_a, path_b in zip(first.bundle_paths, second.bundle_paths):
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                assert fa.read() == fb.read()

    def test_report_is_json_serializable(self, tmp_path):
        engine = _ingest(self._engine(tmp_path, "c"), self._trace())
        json.dumps(engine.report())  # no repr fallback needed


class TestFlightRecorder:
    def test_bounded_ring_with_drop_accounting(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.export({"name": "e", "ts": float(i)})
        assert len(recorder.events()) == 3
        assert recorder.dropped == 2

    def test_standalone_exporter_form(self):
        recorder = FlightRecorder(capacity=8)
        tracer = Tracer(exporters=[recorder])
        tracer.emit("txn.begin", txn=1)
        assert recorder.events()[0]["name"] == "txn.begin"

    def test_bundle_window_contains_injected_cause(self, tmp_path):
        """The acceptance scenario in miniature: inject a lag spike behind a
        fault event; the breach bundle's window must contain that cause."""
        engine = SLOEngine(
            replication_objectives(max_staleness=4, writers=2),
            window=10.0,
            recorder=FlightRecorder(capacity=4096),
            bundle_dir=str(tmp_path),
        )
        events = [
            {"name": "replica.lag", "ts": 1.0, "replica": 1, "lag": 0},
            # the injected cause, one window before the breach verdict:
            {"name": "fault.partition.hold", "ts": 11.0, "src": 0, "dst": 1},
            {"name": "replica.lag", "ts": 12.0, "replica": 1, "lag": 9},
            {"name": "replica.lag", "ts": 21.0, "replica": 1, "lag": 11},
            {"name": "noop", "ts": 35.0},
        ]
        _ingest(engine, events)
        assert engine.expected_breaches
        assert len(engine.bundles) == 1
        bundle = engine.bundles[0]
        assert bundle["schema"] == "repro.slo.bundle/1"
        assert "fault.partition.hold" in bundle["event_tally"]
        # And the written JSONL round-trips: header + one line per event.
        with open(engine.bundle_paths[0], "r", encoding="utf-8") as stream:
            lines = stream.read().splitlines()
        header = json.loads(lines[0])
        assert header["breach"]["objective"] == "replica_lag"
        assert len(lines) == 1 + bundle["events_in_window"]

    def test_max_bundles_caps_recorder_work(self, tmp_path):
        engine = SLOEngine(
            [
                MaxObjective(
                    "lag", "vc.lag", ceiling=1.0, hysteresis=Hysteresis(1, 1)
                )
            ],
            window=10.0,
            recorder=FlightRecorder(capacity=64),
            bundle_dir=str(tmp_path),
            max_bundles=2,
        )
        events = []
        ts = 0.0
        for k in range(6):  # breach, clear, breach, clear, ...
            events.append({"name": "vc.advance", "ts": ts + 1.0, "lag": 9})
            events.append({"name": "vc.advance", "ts": ts + 11.0, "lag": 0})
            ts += 20.0
        events.append({"name": "noop", "ts": ts + 1.0})
        _ingest(engine, events)
        assert len(engine.breaches) > 2
        assert len(engine.bundles) == 2
        assert len(engine.bundle_paths) == 2


class TestGauges:
    def test_gc_sweep_publishes_version_footprint(self):
        from repro.protocols.registry import make_scheduler

        db = make_scheduler("vc-2pl")
        for i in range(3):
            txn = db.begin()
            db.write(txn, "x", i).result()
            db.commit(txn).result()
        db.gc.collect()
        registry = db.counters.registry
        assert registry.gauge("gc.live_versions").value >= 1
        assert registry.gauge("gc.max_chain").value >= 1

    def test_gc_sweep_event_carries_the_gauges(self):
        from repro.obs.exporters import RingBufferExporter
        from repro.obs.instrument import attach_tracer
        from repro.protocols.registry import make_scheduler

        db = make_scheduler("vc-2pl")
        ring = RingBufferExporter(capacity=1024)
        handle = attach_tracer(db, Tracer(exporters=[ring]))
        txn = db.begin()
        db.write(txn, "x", 1).result()
        db.commit(txn).result()
        db.gc.collect()
        handle.detach()
        sweeps = [e for e in ring.events() if e["name"] == "gc.sweep"]
        assert sweeps
        assert sweeps[-1]["live_versions"] >= 1
        assert sweeps[-1]["max_chain"] >= 1

    def test_replica_staleness_gauge(self):
        from repro.replica.node import Replica
        from repro.storage.wal import LogRecord, RecordKind

        replica = Replica(1)
        records = [
            LogRecord(kind=RecordKind.WRITE, txn_id=1, key="x", value=1),
            LogRecord(kind=RecordKind.COMMIT, txn_id=1, tn=1),
            LogRecord(kind=RecordKind.WRITE, txn_id=2, key="x", value=2),
            LogRecord(kind=RecordKind.COMMIT, txn_id=2, tn=2),
        ]
        replica.receive_segment(0, 0, records[:2])
        gauge = replica.counters.registry.gauge("replica.staleness")
        assert gauge.value == replica.staleness_bound == 0
        # A buffered (gapped) segment raises the frontier but not vtnc.
        replica.receive_segment(0, 3, records[3:])
        assert gauge.value == replica.staleness_bound == 1
