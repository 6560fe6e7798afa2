"""Compiled fan-out: an event reaches only the sinks subscribed to its name.

The tracer asks each exporter's ``route(name)`` once per name (an exporter
without ``route`` takes every name through ``export``) and keeps the tuple;
adding or removing an exporter recompiles.  ``replay`` routes a recorded
trace through the same table, so a consumer takes the same events live and
on replay.
"""

from repro.bench.runner import SimConfig, run_simulation
from repro.obs import RingBufferExporter, Tracer, attach_tracer
from repro.obs.slo import SLOEngine, bench_objectives
from repro.obs.slo.recorder import FlightRecorder
from repro.obs.tracer import replay
from repro.obs.witness import WitnessEngine
from repro.protocols.registry import make_scheduler
from repro.workload.mixes import balanced


class Subscriber:
    """Takes only the names it is built with, and records what it got: the
    records themselves."""

    def __init__(self, *names):
        self.names = set(names)
        self.got = []

    def route(self, name):
        return self.got.append if name in self.names else None


class TestCompiledTable:
    def test_a_name_goes_only_to_its_subscribers(self):
        begins, ring = Subscriber("txn.begin"), RingBufferExporter()
        tracer = Tracer(exporters=[begins, ring])
        tracer.emit("txn.begin", 1, "rw")
        tracer.emit("wal.append", "COMMIT", 1, 1)
        assert [e[0] for e in begins.got] == ["txn.begin"]
        assert [e["name"] for e in ring.events()] == ["txn.begin", "wal.append"]
        assert begins.got[0] is ring._buffer[0]

    def test_an_exporter_added_after_a_name_compiled_receives_it(self):
        first, late = Subscriber("txn.begin"), Subscriber("txn.begin")
        tracer = Tracer(exporters=[first])
        tracer.emit("txn.begin", 1, "rw")
        tracer.add_exporter(late)
        tracer.emit("txn.begin", 2, "rw")
        assert [e[2][0] for e in first.got] == [1, 2]
        assert [e[2][0] for e in late.got] == [2]

    def test_a_removed_exporter_stops_receiving(self):
        kept, gone = Subscriber("txn.begin"), RingBufferExporter()
        tracer = Tracer(exporters=[kept, gone])
        tracer.emit("txn.begin", 1, "rw")
        tracer.remove_exporter(gone)
        tracer.emit("txn.begin", 2, "rw")
        assert [e[2][0] for e in kept.got] == [1, 2]
        assert [e["txn"] for e in gone.events()] == [1]

    def test_a_name_with_no_sink_builds_nothing(self):
        ticks = []
        tracer = Tracer(exporters=[Subscriber("txn.begin")], clock=lambda: ticks.append(1) or 0.0)
        assert tracer.emit("wal.append", "COMMIT", 1, 1) is None
        assert ticks == []

    def test_an_engine_with_a_recorder_takes_every_name(self):
        for engine in (
            WitnessEngine(seal=True, recorder=FlightRecorder(capacity=8)),
            SLOEngine(bench_objectives(ro_never_blocks=True), recorder=FlightRecorder(capacity=8)),
        ):
            tracer = Tracer(exporters=[engine])
            tracer.emit("wal.append", "COMMIT", 1, 1)
            assert [e["name"] for e in engine.recorder.events()] == ["wal.append"]


class TestClock:
    def test_a_default_clock_ticks_once_per_built_event(self):
        """Outside a simulation the clock is a counter.  It ticks for each
        event some sink takes (the ``vc.call``/``cc.call`` stream here goes
        nowhere), so two runs with the same sinks stamp the same."""
        stamps = []
        for _ in range(2):
            commits = Subscriber("history.commit")
            witness = WitnessEngine(seal=True)
            tracer = Tracer(exporters=[witness, commits])
            db = make_scheduler("vc-2pl")
            with attach_tracer(db, tracer):
                for key in ("x", "y", "x"):
                    txn = db.begin()
                    db.read(txn, key)
                    db.write(txn, key, 1)
                    db.commit(txn)
            witness.finish()
            assert witness.report()["transactions"] == 3 and witness.ok
            stamps.append([event[1] for event in commits.got])
        # Eight built events a transaction: its four history.* events and
        # the vc.* counter movements, each one tick; the rest build nothing.
        assert stamps[0] == stamps[1] == [6.0, 14.0, 22.0]


class TestReplay:
    def test_live_and_replay_route_the_same_events(self):
        ring = RingBufferExporter()
        live_witness = WitnessEngine(seal=True)
        live_slo = SLOEngine(bench_objectives(ro_never_blocks=True), window=10.0)
        tracer = Tracer(exporters=[ring, live_witness, live_slo])
        run_simulation(
            make_scheduler("vc-2pl-wal"), balanced(seed=3),
            SimConfig(duration=120.0, n_clients=6, check_serializability=False),
            tracer=tracer,
        )
        tracer.close()
        witness = WitnessEngine(seal=True)
        slo = SLOEngine(bench_objectives(ro_never_blocks=True), window=10.0)
        replay(ring.events(), witness, slo)
        witness.finish()
        slo.finish()
        assert witness.report() == live_witness.report()
        assert slo.report() == live_slo.report()
        assert slo.events_seen < len(ring)
