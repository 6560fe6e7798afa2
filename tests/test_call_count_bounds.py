"""What a read-only read, and watching a run, cost in calls, held as bounds.

A read-only read is ``VCstart`` once and then, per read, "the largest
version ``<= sn(T)``" (paper Figure 2); a simulated client resuming on a
future that is already resolved is one queue append and one ``send``.
Neither is modelled work, so neither may grow back.  ``sys.setprofile``
``call`` events count Python frames entered — exact, and the same on every
machine (the pattern of ``tests/test_per_call_allocation.py``, for calls).

The second half holds watching to work proportional to what changed: the
tracer builds each event once, as the dict every exporter takes, and
constructs nothing else; the witness's prune pass visits only keys listing
two or more writers, its seal pass revisits only what a seal can enable; an
event neither engine consumes is one frame and one table miss in each; and
an engine hands its flight recorder the event itself.
"""

import ast
import inspect
import sys
import types
from bisect import bisect_right
from collections import Counter

from repro.obs.exporters import RingBufferExporter
from repro.obs.slo import SLOEngine, bench_objectives
from repro.obs.slo.recorder import FlightRecorder
from repro.obs.tracer import Tracer
from repro.obs.witness import WitnessEngine
from repro.protocols.registry import make_scheduler
from repro.sim import engine
from repro.sim.engine import Process, Simulator

READS = 1_000


def frames_entered(fn) -> list[str]:
    """Qualified names of the Python frames entered while running ``fn()``,
    its own excluded."""
    names = []

    def hook(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_qualname)

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return names[1:]


def python_calls(fn) -> int:
    """Python frames entered while running ``fn()``, its own excluded."""
    return len(frames_entered(fn))


def reader_over(keys):
    db = make_scheduler("vc-2pl-wal")
    writer = db.begin()
    for key in keys:
        db.write(writer, key, 1)
    db.commit(writer)
    return db, db.begin(read_only=True)


def test_one_read_only_read_is_at_most_14_calls():
    db, reader = reader_over(["x", "y"])
    db.read(reader, "x")
    calls = python_calls(lambda: db.read(reader, "y"))
    assert reader.read_set == {"x": 1, "y": 1}
    assert calls <= 14  # 19 before the lease rode on the transaction


def test_yielding_an_already_resolved_read_is_at_most_17_calls():
    keys = [f"k{i}" for i in range(READS)]
    db, reader = reader_over(keys)
    seen = []

    def client():
        for key in keys:
            seen.append((yield db.read(reader, key)))

    sim = Simulator()
    sim.spawn(client())
    calls = python_calls(sim.run)
    assert seen == [1] * READS
    assert sim.events_dispatched == READS + 1  # the spawn, then one per read
    assert sim.now == 0.0
    # 29.0 when every resumption was a heap push and pop and two closures.
    assert calls / READS <= 17


def nested_code(code: types.CodeType):
    return [const for const in code.co_consts if isinstance(const, types.CodeType)]


def test_dispatching_an_event_creates_no_function_object():
    """A ``lambda`` or a nested ``def`` is a code object among its
    function's constants; none of the per-event functions has one."""
    per_event = [
        Simulator.call_at, Simulator.call_in, Simulator.spawn, Simulator._step,
        Simulator.run, Process.__init__, Process._resume_with,
    ]
    for function in per_event:
        assert nested_code(function.__code__) == [], function.__qualname__
    tree = ast.parse(inspect.getsource(engine))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Lambda)]
    assert not hasattr(Simulator, "_handle_yield")
    assert "_on_settle" not in inspect.getsource(engine)


# -- the price of watching ---------------------------------------------------------


def profiled(fn, *, frames=(), builtins=(), inside=None):
    """Run ``fn()`` and count, exactly: entries into each function of
    ``frames`` (by code object) and calls of each C function or method name
    of ``builtins`` — of the latter only those made directly from the
    function ``inside``, when given."""
    codes = {function.__code__: function for function in frames}
    seen = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1
        elif event == "c_call" and (inside is None or frame.f_code is inside.__code__):
            for builtin in builtins:
                if arg is builtin or getattr(arg, "__name__", None) == builtin:
                    seen[builtin] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def test_emitting_into_a_ring_constructs_nothing():
    """The event is the dict ``emit`` builds: the clock, the ring, no
    ``__init__`` (an event object's constructor was the third frame)."""
    ring = RingBufferExporter()
    tracer = Tracer(exporters=[ring])
    frames = frames_entered(lambda: tracer.emit("wal.append", lsn=1))
    assert frames == ["Tracer.emit", "Tracer._tick", "RingBufferExporter.export"]
    assert ring.events() == [{"name": "wal.append", "ts": 0.0, "lsn": 1}]


def feed(engine, ts, name, **fields):
    engine.export({"name": name, "ts": ts, **fields})


def commit_writer(engine, ts, tn, key, *, watermark=True):
    feed(engine, ts, "history.begin", txn=tn, cls="rw")
    feed(engine, ts, "history.write", txn=tn, key=key)
    feed(engine, ts, "history.commit", txn=tn, ident=tn, tn=tn, cls="rw")
    if watermark:
        feed(engine, ts, "vc.advance", number=tn, tnc=tn + 1, vtnc=tn)


def test_a_prune_pass_bisects_only_keys_with_a_superseded_version():
    """2 000 writers over 200 keys, the watermark one commit behind: a key
    lists two writers from its rewrite until the next pass prunes the older,
    so a pass bisects a handful of lists (186 of 200 when it tried them all)."""
    engine = WitnessEngine(seal=True)

    def stream():
        for tn in range(1, 2_001):
            commit_writer(engine, float(tn), tn, f"k{tn * 7919 % 200}")

    seen = profiled(stream, builtins=[bisect_right], inside=WitnessEngine._prune_pass)
    assert engine.pruned > 1_700 and engine.ok
    assert seen[bisect_right] / 2_000 <= 10


def test_a_seal_pass_revisits_only_what_a_seal_enables():
    """One read-write token held open pins the floor, so the writers of 500
    mixed commits stay tracked; every read-only commit seals at once (its
    own node) and its pass must not re-scan the N nodes that cannot move."""
    engine = WitnessEngine(seal=True)
    feed(engine, 0.0, "vc.advance", number=0, tnc=1, vtnc=0)
    feed(engine, 0.0, "history.begin", txn=9_999, cls="rw")
    passes = []
    for n in range(2, 502):  # the held token's floor is 1: all stay above it
        ts = float(n)
        if n % 2:
            commit_writer(engine, ts, n, f"k{n * 7919 % 200}")
            continue
        feed(engine, ts, "history.begin", txn=n, cls="ro")
        # Every fourth reader reads a tracked writer's version and so stays
        # tracked itself; the others read the initial version and seal.
        version = n - 1 if n % 8 == 0 else 0
        key = f"k{(n - 1) * 7919 % 200}"
        feed(engine, ts, "history.read", txn=n, key=key, version=version)
        tracked, sealed = len(engine._nodes) + 1, engine.sealed
        seen = profiled(
            lambda: feed(
                engine, ts, "history.commit", txn=n, ident=10**10 + n, tn=None, cls="ro"
            ),
            frames=[WitnessEngine._sealable],
        )
        if engine.sealed > sealed:
            passes.append((tracked, seen[WitnessEngine._sealable]))
    assert len(passes) > 150 and max(tracked for tracked, _ in passes) > 300
    for tracked, calls in passes:
        assert tracked <= calls <= 1.25 * tracked + 8, (tracked, calls)
    # The token finishes, the floor jumps past every writer, everything seals:
    # in commit order on the first walk, so still no second one.
    tracked = len(engine._nodes)
    seen = profiled(
        lambda: feed(engine, 502.0, "history.abort", txn=9_999, tn=None, ident=None),
        frames=[WitnessEngine._sealable],
    )
    assert engine._nodes == {} and engine.ok
    assert seen[WitnessEngine._sealable] <= 1.25 * tracked + 8


def test_an_event_nobody_consumes_is_one_table_miss_in_each_engine():
    witness = WitnessEngine(seal=True)
    slo = SLOEngine(bench_objectives(ro_never_blocks=True), window=25.0)
    for engine in (witness, slo):
        engine.export({"name": "wal.append", "ts": 1.0, "lsn": 1})  # opens the window
    event = {"name": "wal.append", "ts": 2.0, "lsn": 2}
    for engine, prefix_tests in ((witness, 1), (slo, 0)):
        assert python_calls(lambda: engine.export(event)) == 1  # export alone
        seen = profiled(lambda: engine.export(event), builtins=["startswith"])
        assert seen["startswith"] <= prefix_tests
    assert witness.events_seen == 0 and slo.events_seen == 3  # history.* only; all


def test_a_read_of_a_key_already_being_read_allocates_no_counter():
    engine = WitnessEngine(seal=True)
    for txn in (1, 2):
        feed(engine, 1.0, "history.begin", txn=txn, cls="ro")
    feed(engine, 2.0, "history.read", txn=1, key="x", version=0)
    seen = profiled(
        lambda: feed(engine, 3.0, "history.read", txn=2, key="x", version=0),
        frames=[Counter.__init__],
    )
    assert engine._live_reads == {"x": {0: 2}}
    assert seen[Counter.__init__] == 0


class Recorder(FlightRecorder):
    """A flight recorder that keeps what it is handed, for identity checks."""

    def __init__(self):
        super().__init__()
        self.handed = []

    def export(self, event):
        self.handed.append(event)


def test_an_engine_hands_its_recorder_the_event_itself():
    witness = WitnessEngine(seal=True, recorder=Recorder())
    slo = SLOEngine(bench_objectives(ro_never_blocks=True), recorder=Recorder())
    tracer = Tracer(exporters=[witness, slo])
    event = tracer.emit("history.begin", txn=1, cls="rw")
    for engine in (witness, slo):
        [handed] = engine.recorder.handed
        assert handed is event  # no copy, live or on replay


def test_a_finished_engine_left_on_a_tracer_does_no_work():
    """``finish()`` is public and a drill's engines stay on the shared tracer
    until the drill's observers are removed: an event must not reach the
    flight recorder of an engine that will drop it."""
    witness = WitnessEngine(seal=True, recorder=Recorder())
    slo = SLOEngine(bench_objectives(ro_never_blocks=True), recorder=Recorder())
    event = {"name": "history.begin", "ts": 1.0, "txn": 1, "cls": "rw"}
    for engine in (witness, slo):
        engine.export(event)
        engine.finish()
    assert [len(e.recorder.handed) for e in (witness, slo)] == [1, 1]
    before = (witness.report(), slo.report())
    seen = profiled(
        lambda: [engine.export(event) for engine in (witness, slo)],
        frames=[Recorder.export],
    )
    assert not seen
    assert [len(e.recorder.handed) for e in (witness, slo)] == [1, 1]
    assert (witness.report(), slo.report()) == before
    assert witness.events_seen == 1 and slo.events_seen == 1
