"""What a read-only read costs in Python-level calls, held as a bound.

A read-only read is ``VCstart`` once and then, per read, "the largest
version ``<= sn(T)``" (paper Figure 2); a simulated client resuming on a
future that is already resolved is one queue append and one ``send``.
Neither is modelled work, so neither may grow back.  ``sys.setprofile``
``call`` events count Python frames entered — exact, and the same on every
machine (the pattern of ``tests/test_per_call_allocation.py``, for calls).
"""

import ast
import inspect
import sys
import types

from repro.protocols.registry import make_scheduler
from repro.sim import engine
from repro.sim.engine import Process, Simulator

READS = 1_000


def python_calls(fn) -> int:
    """Python frames entered while running ``fn()``, its own excluded."""
    count = -1

    def hook(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


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
