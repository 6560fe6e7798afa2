"""What a read-only read, a distributed commit, and watching a run cost in
calls, held as bounds.

A read-only read is ``VCstart`` once and then, per read, "the largest
version ``<= sn(T)``" (paper Figure 2); a simulated client resuming on a
future that is already resolved is one ``send``, with no queue record when
nothing else is due.
Neither is modelled work, so neither may grow back.  ``sys.setprofile``
``call`` events count Python frames entered — exact, and the same on every
machine (the pattern of ``tests/test_per_call_allocation.py``, for calls).

A distributed read-write commit costs its messages, its 2PC legs and its
WAL records; placing keys, regrouping the write set and building spans for
a disabled tracer are not modelled work either.

The second half holds watching to work proportional to what changed: the
tracer builds each event once, as the record every sink of its name takes, and
constructs nothing else; the witness's prune pass visits only keys listing
two or more writers, its seal pass starts from what a commit changed and
revisits only what a seal can enable, and a read-only commit that can gain
no edge never enters the graph; an event neither engine subscribes to
enters neither; an engine hands its flight recorder the event itself; and a
whole observed run costs a fixed number of ``repro.obs`` frames.
"""

import ast
import gc
import inspect
import os
import sys
import types
from bisect import bisect_right
from collections import Counter
from functools import partial

import repro
from repro.bench.runner import SimConfig, run_simulation
from repro.distributed import Courier, DistributedVCDatabase
from repro.faults import FaultSchedule, FaultSpec, FaultyCourier, RetryPolicy
from repro.obs.events import record
from repro.obs.exporters import RingBufferExporter
from repro.obs.pipeline import ObsPipeline
from repro.obs.slo import SLOEngine, bench_objectives
from repro.obs.slo.recorder import FlightRecorder
from repro.obs.tracer import Tracer
from repro.obs.witness import WitnessEngine
from repro.protocols.registry import make_scheduler
from repro.sim import engine
from repro.sim.engine import Process, Simulator
from repro.workload.mixes import balanced

READS = 1_000


def frames_entered(fn) -> list[str]:
    """Qualified names of the Python frames entered while running ``fn()``,
    its own excluded.  The collector is paused, so no finalizer of an earlier
    test's garbage (a suspended generator being closed) is counted."""
    codes = []

    def hook(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    gc.collect()
    gc.disable()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    if hasattr(types.CodeType, "co_qualname"):
        return [code.co_qualname for code in codes[1:]]
    names = loaded_qualnames()  # CPython 3.10 lacks co_qualname
    return [names.get(code, code.co_name) for code in codes[1:]]


def loaded_qualnames() -> dict[types.CodeType, str]:
    """The qualified name of every function the loaded ``repro`` modules and
    this one define — methods, properties and what they nest — by code."""
    names: dict[types.CodeType, str] = {}

    def add(code: types.CodeType, name: str) -> None:
        names.setdefault(code, name)
        for nested in nested_code(code):
            add(nested, f"{name}.<locals>.{nested.co_name}")

    def visit(obj, module: str) -> None:
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            for accessor in (obj.fget, obj.fset, obj.fdel):
                if accessor is not None:
                    visit(accessor, module)
        elif isinstance(obj, types.FunctionType) and obj.__module__ == module:
            obj = inspect.unwrap(obj)
            add(obj.__code__, obj.__qualname__)
        elif isinstance(obj, type) and obj.__module__ == module:
            for member in vars(obj).values():
                if member is not obj:
                    visit(member, module)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name == __name__ or name.split(".")[0] == "repro":
            for obj in list(vars(module).values()):
                visit(obj, name)
    return names


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


def test_one_read_only_read_is_at_most_10_calls():
    db, reader = reader_over(["x", "y"])
    db.read(reader, "x")
    calls = python_calls(lambda: db.read(reader, "y"))
    assert reader.read_set == {"x": 1, "y": 1}
    # 19 before the lease rode on the transaction; 12 while the store's read
    # went through ``object`` and ``_index_leq``.  Measured 10 on CPython
    # 3.10, 3.11 and 3.12.
    assert calls <= 10


def resolved_reads():
    """A simulator with one client spawned that yields ``READS`` read-only
    reads, each returning an already resolved future, and the values seen."""
    keys = [f"k{i}" for i in range(READS)]
    db, reader = reader_over(keys)
    seen = []

    def client():
        for key in keys:
            seen.append((yield db.read(reader, key)))

    sim = Simulator()
    sim.spawn(client())
    return sim, seen


def test_yielding_an_already_resolved_read_is_at_most_11_calls():
    sim, seen = resolved_reads()
    calls = python_calls(sim.run)
    assert seen == [1] * READS
    assert sim.events_dispatched == READS + 1  # the spawn, then one per read
    assert sim.now == 0.0
    # 29.0 when every resumption was a heap push and pop and two closures;
    # 14.002 while each went through the "now" queue and ``Simulator._step``
    # and the store's read was four frames.  Measured 11 per read and the
    # spawn's first resumption on CPython 3.10, 3.11 and 3.12.
    assert calls <= 11 * READS + 1


def test_a_settled_yield_with_nothing_else_due_is_resumed_in_place():
    """Nothing else is queued, so each read's resumption would be the next
    record popped: ``run`` resumes the client at once, with no record
    queued — the one ``popleft`` is the spawn's."""
    sim, seen = resolved_reads()
    calls = profiled(sim.run, builtins=("append", "popleft"), inside=Simulator.run)
    assert seen == [1] * READS and sim.events_dispatched == READS + 1
    assert calls == {"popleft": 1}


def test_a_warm_uncontended_wal_transaction_builds_no_pending_future():
    """Two reads, two writes and a commit on free keys: every lock is granted
    at once, so each operation acts inline and returns a settled future —
    no future is built pending, subscribed to or settled, no closure runs,
    and each write's WRITE record is appended inline.  The first run opens
    the keys' chains; the second is measured."""
    db = make_scheduler("vc-2pl-wal")
    commits = []

    def transaction(value):
        txn = db.begin()
        for key in ("x", "y"):
            db.read(txn, key)
        for key in ("x", "y"):
            db.write(txn, key, value)
        commits.append(db.commit(txn))

    transaction(1)
    # A partial, so that the first frame entered, which is not counted, is
    # ``transaction`` itself.
    frames = frames_entered(partial(transaction, 2))
    assert commits[1].result() is None and db.store.read_latest_committed("y").value == 2
    assert not {"OpFuture.__init__", "OpFuture.add_callback", "OpFuture.resolve"} & {*frames}
    assert not [name for name in frames if "<locals>" in name]
    assert frames.count("WriteAheadLog.append") == 3  # two WRITEs and the COMMIT
    # 208 when each lock built a pending future and each operation a second
    # one with a closure, and the WAL subscribed a third closure per write.
    # Measured 158 on CPython 3.10, 3.11 and 3.12.
    assert len(frames) <= 158, frames


def test_a_blocked_write_acts_in_its_lock_callback():
    """Only a wait builds the closure: the write blocked behind the holder's
    X lock is staged, and logged, when the holder's commit grants it."""
    db = make_scheduler("vc-2pl-wal")
    holder, waiter = db.begin(), db.begin()
    db.write(holder, "x", 1)
    blocked = db.write(waiter, "x", 2)
    assert blocked.pending and "x" not in waiter.write_set
    frames = frames_entered(lambda: db.commit(holder))
    assert blocked.result() is None and waiter.write_set == {"x": 2}
    assert "StrictTwoPhaseLocking._locked_write.<locals>._locked" in frames
    assert "RecoverableVC2PLScheduler._stage_write" in frames
    kinds = [record.kind.value for record in db.log.all_records()]
    assert kinds == ["write", "commit", "write"]


def distributed_on_a_clock():
    sim = Simulator()
    return sim, DistributedVCDatabase(n_sites=3, courier=Courier(sim=sim, latency=1.0))


def test_a_simulated_hop_enters_four_frames_before_its_handler():
    """A message to a site at a fixed latency — an int, resolved to the
    float every message reads when the courier is built — enters
    ``dispatch``, ``call_at``, then ``_deliver`` and the site's ``receive``:
    no route, no latency draw, no send wrapper."""
    sim, db = distributed_on_a_clock()
    db.courier = Courier(sim=sim, latency=1)
    arrivals = []

    def handler():
        arrivals.append(sim.now)

    site = db.sites[2]
    message = partial(site.receive, handler)
    frames = frames_entered(
        lambda: (db.courier.dispatch(message, site.channels["2pc"]), sim.run())
    )
    assert arrivals == [1.0] and type(arrivals[0]) is float
    assert frames[:-1] == [
        "Courier.dispatch", "Simulator.call_at", "Simulator.run", "Courier._deliver",
        "SiteBase.receive",
    ]
    assert frames[-1].endswith("handler")


def test_a_faulty_courier_on_a_clock_still_drops_and_duplicates():
    """The fault layer overrides ``_route``, so no simulated message skips
    its schedule: a certain drop is retransmitted after its backoff, a
    certain duplicate is delivered twice."""
    def deliveries(spec):
        sim = Simulator()
        courier = FaultyCourier(
            schedule=FaultSchedule(spec, seed=0),
            retry=RetryPolicy(base=4.0, jitter=0.0, max_attempts=2),
            sim=sim,
            latency=1.0,
        )
        arrivals = []
        courier.dispatch(lambda: arrivals.append(sim.now), "2pc")
        sim.run()
        return arrivals, courier.schedule.counts

    arrivals, counts = deliveries(FaultSpec(drop=1.0))
    assert arrivals == [5.0]  # one backoff, then the forced retransmission
    assert counts.drops == 2 and counts.retries_exhausted == 1
    arrivals, counts = deliveries(FaultSpec(duplicate=1.0))
    assert arrivals == [1.0, 6.0] and counts.duplicates == 1  # echo: latency + base


def test_a_callable_channel_latency_is_drawn_once_per_message():
    """A numeric latency is resolved once; a callable one is drawn once per
    message, in every mode and through the fault layer."""
    draws = []

    def slow() -> float:
        draws.append(1)
        return 2.0

    sim = Simulator()
    couriers = [
        Courier(sim=sim, latency=slow),
        FaultyCourier(sim, latency=slow),
        Courier(manual=True, latency=slow),
    ]
    for courier in couriers:
        draws.clear()
        for channel in ("2pc", "data", "2pc", "data"):
            courier.dispatch(lambda: None, channel)
        sim.run()
        courier.pump()
        assert len(draws) == 4 and courier.delivered == 4


def test_a_two_site_read_write_commit_is_at_most_183_calls():
    """Two writes on two of three sites, then 2PC: 6 messages, 4 WAL
    records, no tracer.  The first run places the keys and opens their
    version chains; the second is measured."""
    sim, db = distributed_on_a_clock()

    def client(value):
        txn = db.begin()
        yield db.write(txn, "s1:x", value)
        yield db.write(txn, "s2:y", value)
        yield db.commit(txn)

    sim.spawn(client(1))
    sim.run()
    sim.spawn(client(2))
    delivered = db.courier.delivered
    frames = frames_entered(sim.run)
    assert db.courier.delivered - delivered == 6  # 2 writes, 2 prepares, 2 legs
    assert [site.wal.forces for site in db.sites.values()] == [2, 2, 0]
    assert "Distributed2PLDatabase._place" not in frames
    assert "start_span" not in frames and "activate.__init__" not in frames
    # 310 when every commit re-placed the write set per site, every record
    # was a dataclass and the 2PC path built spans for a disabled tracer;
    # 266 while each lock request built a pending future and its delivery
    # subscribed a closure to it; 246 while each message went through one
    # or two send wrappers, a route and a latency draw, each placed key
    # through a call, each 2PC handler through a span wrapper, and each
    # settle and counter bump took two frames.
    # Measured 183 on CPython 3.10, 3.11 and 3.12.  Four of the frames are
    # the standard library's: the LogRecord constructors (namedtuple's
    # generated ``__new__``, a ``<lambda>``); a lock mode hashes in C.
    assert "Enum.__hash__" not in frames
    assert len(frames) <= 183, frames


def test_a_read_at_an_idle_site_builds_no_future():
    """The site's visibility already covers the start number: the read runs
    at delivery, with no visibility future built, subscribed or settled —
    the only ``OpFuture`` frames are the result's own."""
    sim, db = distributed_on_a_clock()
    reader = db.begin(read_only=True)
    db.site_of_key("s1:x")
    reads = []
    frames = frames_entered(lambda: (reads.append(db.read(reader, "s1:x")), sim.run()))
    assert reads[0].result() is None
    futures = [name for name in frames if name.startswith("OpFuture")]
    assert futures == ["OpFuture.__init__", "OpFuture.resolve"]
    assert "Site.wait_visible" not in frames
    # 38 with a resolved future and its callback; 29 with two send wrappers,
    # a route, a latency draw, the ``pending`` property, a two-frame settle
    # and a placement call for a key already placed.
    assert "Distributed2PLDatabase.site_of_key" not in frames
    assert len(frames) <= 22, frames


def nested_code(code: types.CodeType):
    return [const for const in code.co_consts if isinstance(const, types.CodeType)]


def test_dispatching_an_event_creates_no_function_object():
    """A ``lambda`` or a nested ``def`` is a code object among its
    function's constants; none of the per-event functions has one."""
    per_event = [
        Simulator.call_at, Simulator.call_in, Simulator.spawn, Simulator.run,
        Process.__init__, Process._resume_with,
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
    """Once a name's sinks are compiled, the event is the record ``emit``
    builds: the clock, the ring, no ``__init__`` (an event object's
    constructor was the third frame)."""
    ring = RingBufferExporter()
    tracer = Tracer(exporters=[ring])
    tracer.emit("wal.append", "COMMIT", 0, 0)  # the first emit of a name compiles it
    frames = frames_entered(lambda: tracer.emit("wal.append", "COMMIT", 1, 1))
    assert frames == ["Tracer.emit", "Tracer._tick", "RingBufferExporter.export"]
    assert ring.events()[1] == {
        "name": "wal.append", "ts": 1.0, "kind": "COMMIT", "txn": 1, "tn": 1,
    }


def test_an_observed_read_is_one_record_through_the_ring_and_the_witness():
    """Under ``ObsPipeline(ring, witness)`` (its clock a ``partial``, no
    frame), one ``history.read`` enters exactly the tracer, the ring, the
    witness and its handler — no dict is built on the way, and the ring
    keeps the record the witness was handed."""
    sim = Simulator()
    pipeline = ObsPipeline(sim=sim, ring=16, witness=WitnessEngine(seal=True))
    tracer = pipeline.tracer
    tracer.emit("history.begin", 1, "rw")
    tracer.emit("history.read", 1, "x", 0)  # compiles the name
    frames = frames_entered(lambda: tracer.emit("history.read", 1, "y", 0))
    assert frames == [
        "Tracer.emit", "RingBufferExporter.export", "WitnessEngine.export",
        "WitnessEngine._on_read",
    ]
    held = pipeline.ring._buffer[-1]
    assert type(held) is tuple and held == ("history.read", 0.0, (1, "y", 0), None, None)
    assert pipeline.witness._tokens[1].reads == [("x", 0), ("y", 0)]
    pipeline.close()


def feed(engine, ts, name, **fields):
    engine.export(record({"name": name, "ts": ts, **fields}))


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
    mixed commits stay tracked.  A read-only commit's pass starts from what
    the commit changed — its own node, when nothing points into it — and
    revisits only what that seal enables: its successors, the later writers
    of the key it read.  The 300 tracked nodes that cannot move are not
    visited (a pass once tried each of them: N + 3 calls at N tracked)."""
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
        tracked, writers = len(engine._nodes), len(engine._writers.get(key, ()))
        seen = profiled(
            lambda: feed(
                engine, ts, "history.commit", txn=n, ident=10**10 + n, tn=None, cls="ro"
            ),
            frames=[WitnessEngine._sealable],
        )
        passes.append((tracked, seen[WitnessEngine._sealable], writers))
    assert len(passes) == 250 and max(tracked for tracked, _, _ in passes) > 300
    for tracked, calls, writers in passes:
        assert calls <= 1 + writers <= 4, (tracked, calls, writers)
    # The token finishes, the floor jumps past every writer, everything seals:
    # the floor's rise hands the pass its writers in number order, so still
    # no second walk.
    tracked = len(engine._nodes)
    seen = profiled(
        lambda: feed(engine, 502.0, "history.abort", txn=9_999, tn=None, ident=None),
        frames=[WitnessEngine._sealable],
    )
    assert engine._nodes == {} and engine.ok
    assert seen[WitnessEngine._sealable] <= 1.25 * tracked + 8


def test_a_read_only_commit_of_sealed_versions_never_enters_the_graph():
    """Writer 2 of ``x`` is sealed under the watermark (and 1, which it
    superseded, pruned); a read-only transaction reads ``x`` at 2 and
    commits.  Every edge the rule derives
    for it has a sealed end, so it is counted and sealed in place: no node,
    no topology frame, no reads-from pair."""
    engine = WitnessEngine(seal=True)
    for tn, key in ((1, "x"), (2, "x"), (3, "y")):  # 3's pass seals 2
        commit_writer(engine, float(tn), tn, key)
    commit_writer(engine, 4.0, 4, "z", watermark=False)  # 4's pass seals 3
    assert engine._writers["x"] == [2] and 2 in engine._sealed_readable
    feed(engine, 5.0, "history.begin", txn=100, cls="ro")
    feed(engine, 5.0, "history.read", txn=100, key="x", version=2)
    sealed, folded = engine.sealed, engine.folded_edges
    frames = frames_entered(
        lambda: feed(engine, 5.0, "history.commit", txn=100, ident=10**10, tn=None, cls="ro")
    )
    assert not [name for name in frames if name.startswith("IncrementalTopology.")]
    assert "_Node.__init__" not in frames and 10**10 not in engine._nodes
    assert engine.sealed == sealed + 1 and engine.committed == 5 and engine.ok
    # The wr edge from 2 and the ww edge from the pruned 1 into 2, folded.
    assert engine.folded_edges == folded + 2 and engine._rf_pairs == {}


def test_an_event_nobody_consumes_enters_no_engine():
    """Through a tracer, a name neither engine subscribes to reaches only the
    ring; with no ring it is not even built."""
    witness = WitnessEngine(seal=True)
    slo = SLOEngine(bench_objectives(ro_never_blocks=True), window=25.0)
    ring = RingBufferExporter()
    tracer = Tracer(exporters=[ring, witness, slo])
    tracer.emit("wal.append", "COMMIT", 1, 1)
    frames = frames_entered(lambda: tracer.emit("wal.append", "COMMIT", 2, 2))
    assert frames == ["Tracer.emit", "Tracer._tick", "RingBufferExporter.export"]
    tracer.remove_exporter(ring)
    assert tracer.emit("wal.append", "COMMIT", 3, 3) is None
    assert frames_entered(lambda: tracer.emit("wal.append", "COMMIT", 4, 4)) == ["Tracer.emit"]
    assert witness.events_seen == 0 and slo.events_seen == 0 and len(ring) == 2


def test_a_read_of_a_key_already_being_read_allocates_no_counter():
    """Live reads are a plain ``version -> count`` dict per key: a second
    read of the key enters nothing past the handler."""
    engine = WitnessEngine(seal=True)
    for txn in (1, 2):
        feed(engine, 1.0, "history.begin", txn=txn, cls="ro")
    feed(engine, 2.0, "history.read", txn=1, key="x", version=0)
    event = ("history.read", 3.0, (2, "x", 0), None, None)
    frames = frames_entered(lambda: engine.export(event))
    assert frames == ["WitnessEngine.export", "WitnessEngine._on_read"]
    assert engine._live_reads == {"x": {0: 2}}


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
    event = tracer.emit("history.begin", 1, "rw")
    for engine in (witness, slo):
        [handed] = engine.recorder.handed
        assert handed is event  # no copy, live or on replay


def test_a_finished_engine_left_on_a_tracer_does_no_work():
    """``finish()`` is public and a drill's engines stay on the shared tracer
    until the drill's observers are removed: an event must not reach the
    flight recorder of an engine that will drop it."""
    witness = WitnessEngine(seal=True, recorder=Recorder())
    slo = SLOEngine(bench_objectives(ro_never_blocks=True), recorder=Recorder())
    event = ("history.begin", 1.0, (1, "rw"), None, None)
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


OBS = os.path.join(os.path.dirname(repro.__file__), "obs") + os.sep


def test_watching_a_wal_run_costs_a_fixed_number_of_obs_frames():
    """A seeded ``vc-2pl-wal`` run under what ``bench --slo`` and every
    campaign attach — ring, SLO engine over the bench objectives, sealing
    witness — counted in frames of ``repro.obs`` code: the tracer, the ring,
    both engines, spans.  Only ``repro`` frames count, and comprehensions
    are left out (CPython 3.12 runs them inline), so the count is the same on
    3.10, 3.11 and 3.12."""
    pipeline = ObsPipeline(
        ring=65_536,
        engine=SLOEngine(bench_objectives(ro_never_blocks=True), window=25.0),
        witness=WitnessEngine(seal=True),
    )
    frames = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(OBS):
            frames.append(frame.f_code.co_name)

    gc.collect()
    gc.disable()
    sys.setprofile(hook)
    try:
        metrics = run_simulation(
            make_scheduler("vc-2pl-wal"), balanced(seed=0),
            SimConfig(duration=400.0, n_clients=8, check_serializability=False),
            tracer=pipeline.tracer,
        )
    finally:
        sys.setprofile(None)
        gc.enable()
    counted = [name for name in frames if name not in ("<listcomp>", "<dictcomp>", "<setcomp>")]
    assert metrics.commits == 518 and pipeline.witness.ok and pipeline.engine.ok
    # 69 843 (134.8 per commit) when every read-only commit was a graph
    # node, every pass tried every tracked node and every candidate key,
    # and the SLO engine derived each signal's name per event; 44 757
    # (86.4 per commit) while the run set a ``vc.lag`` gauge in a metrics
    # registry on every version-control notification.
    assert len(counted) <= 44_190, len(counted) / metrics.commits  # 85.3 per commit
