"""The simulator dispatches in exactly the order a ``(when, seq)`` heap would.

``HeapSimulator`` is the engine's original loop — every event through one
heap keyed ``(when, seq)``, every resumption a fresh closure — kept here as
the definition of dispatch order and nowhere else (as
``tests/histories/test_serializability.py`` keeps the quadratic certifier).
The property runs random programs on it and on ``repro.sim.engine.Simulator``
and demands the same ``(now, who)`` trace, final clock, event count and
process results.
"""

import heapq
import itertools
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.futures import OpFuture, failed, resolved
from repro.sim.engine import SimError, Simulator


class HeapSimulator:
    def __init__(self):
        self.now, self.events_dispatched = 0.0, 0
        self._sequence, self._heap, self.processes = itertools.count(), [], []

    def call_at(self, when, fn):
        if when < self.now:
            raise SimError(f"cannot schedule in the past ({when} < {self.now})")
        heapq.heappush(self._heap, (when, next(self._sequence), fn))

    def call_in(self, delay, fn):
        self.call_at(self.now + delay, fn)

    def spawn(self, generator, name=""):
        process = SimpleNamespace(name=name, generator=generator, finished=False, result=None, error=None)
        self.processes.append(process)
        self.call_in(0.0, lambda: self._step(process, None, None))
        return process

    def _step(self, process, value, error):
        try:
            if error is not None:
                yielded = process.generator.throw(error)
            else:
                yielded = process.generator.send(value)
        except StopIteration as stop:
            process.finished = True
            process.result = stop.value
            return
        except BaseException as exc:
            process.finished = True
            process.error = exc
            raise
        self._handle_yield(process, yielded)

    def _handle_yield(self, process, yielded):
        if isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimError(f"process {process.name} yielded negative delay")
            self.call_in(float(yielded), lambda: self._step(process, None, None))
            return
        if isinstance(yielded, OpFuture):
            def _on_settle(future):
                # Resume via the event queue (same timestamp), never inline.
                if future.failed:
                    self.call_in(0.0, lambda: self._step(process, None, future.error))
                else:
                    self.call_in(0.0, lambda: self._step(process, future.result(), None))

            yielded.add_callback(_on_settle)
            return
        raise SimError(
            f"process {process.name} yielded {yielded!r}; expected a delay or an OpFuture"
        )

    def run(self, until=None):
        while self._heap:
            when, _seq, fn = self._heap[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._heap)
            self.now = when
            self.events_dispatched += 1
            fn()
        if until is not None and self.now < until:
            self.now = until
        return self.now


# -- random programs -----------------------------------------------------------------

class Boom(Exception):
    pass


#: Few distinct values, so events pile up on the same instant; 1e-17 is below
#: the clock's resolution once ``now >= 1`` (``now + d == now``).
DELAYS = st.sampled_from([0, 0.0, 1e-17, 0.25, 0.5, 1, 1.0, 2.5])

CALLBACK = st.tuples(st.sampled_from(["at-now", "in-zero", "in"]), DELAYS, st.integers(0, 2))


def steps(depth):
    step = st.one_of(
        st.tuples(st.just("sleep"), DELAYS),
        st.tuples(st.just("resolved"), st.integers(0, 9)),
        st.tuples(st.just("failed"), st.booleans()),  # caught by the process?
        st.tuples(st.just("later"), DELAYS, st.booleans()),  # settles ok?
        st.tuples(st.just("shared"), st.integers(0, 1)),
        st.tuples(st.just("settle"), st.integers(0, 1), st.booleans()),
        st.tuples(st.just("callback"), CALLBACK),
        st.tuples(st.just("raise")),
        st.tuples(st.just("bad"), st.sampled_from(["nonsense", -1])),
    )
    if depth:
        step = st.one_of(step, st.tuples(st.just("spawn"), steps(depth - 1)))
    return st.lists(step, max_size=6)


BETWEEN = st.one_of(
    st.tuples(st.just("callback"), CALLBACK), st.tuples(st.just("spawn"), steps(1))
)
#: (how far past the current clock to run — may be zero or behind it, what to
#: schedule once that run returns)
CHUNK = st.tuples(st.sampled_from([-1, 0, 1e-17, 0.3, 1, 2.5]), st.lists(BETWEEN, max_size=3))
PROGRAM = st.tuples(st.lists(steps(2), min_size=1, max_size=4), st.lists(CHUNK, max_size=4))


class Runner:
    """One program on one engine; everything observable lands in ``trace``."""

    def __init__(self, sim):
        self.sim = sim
        self.trace = []
        self.names = itertools.count()
        self.shared = [OpFuture(), OpFuture()]

    def spawn(self, body):
        name = f"p{next(self.names)}"
        self.sim.spawn(self.process(name, body), name=name)

    def schedule(self, how, delay, nested, tag):
        def fire():
            self.trace.append((self.sim.now, tag))
            if nested:
                self.schedule("in-zero", 0, nested - 1, tag + "'")
                self.schedule("at-now", 0, 0, tag + '"')

        if how == "at-now":
            self.sim.call_at(self.sim.now, fire)
        else:
            self.sim.call_in(0 if how == "in-zero" else delay, fire)

    def settle(self, future, ok, tag):
        self.trace.append((self.sim.now, tag))
        if future.pending:
            future.resolve(tag) if ok else future.fail(Boom(tag))

    def process(self, name, body):
        sim, trace = self.sim, self.trace
        for index, step in enumerate(body):
            trace.append((sim.now, name, index))
            kind = step[0]
            if kind == "sleep":
                yield step[1]
            elif kind == "resolved":
                trace.append((sim.now, name, (yield resolved(step[1]))))
            elif kind in ("failed", "later", "shared"):
                if kind == "failed":
                    future = failed(Boom(name))
                elif kind == "shared":
                    future = self.shared[step[1]]
                else:
                    future = OpFuture()
                    tag = f"{name}.{index}"
                    sim.call_in(step[1], lambda f=future, ok=step[2], t=tag: self.settle(f, ok, t))
                if kind == "failed" and not step[1]:
                    yield future  # uncaught: the process dies, run() raises
                try:
                    trace.append((sim.now, name, (yield future)))
                except Boom as error:
                    trace.append((sim.now, name, "caught", error.args))
            elif kind == "settle":
                self.settle(self.shared[step[1]], step[2], f"{name}.{index}")
            elif kind == "callback":
                self.schedule(*step[1], tag=f"{name}.{index}")
            elif kind == "spawn":
                self.spawn(step[1])
            elif kind == "raise":
                raise Boom(name)
            elif kind == "bad":
                yield step[1]
        return name.upper()

    def drive(self, until):
        """``run`` again after every error it lets through, as a caller
        that catches a process's exception and carries on would."""
        for _ in range(200):
            try:
                return self.sim.run(until)
            except (Boom, SimError) as error:
                self.trace.append((self.sim.now, "run raised", type(error).__name__, error.args))
        raise AssertionError("run() kept raising")

    def execute(self, program):
        bodies, chunks = program
        for body in bodies:
            self.spawn(body)
        for count, (ahead, between) in enumerate(chunks):
            self.trace.append(("run until", self.drive(self.sim.now + ahead)))
            for index, action in enumerate(between):
                if action[0] == "spawn":
                    self.spawn(action[1])
                else:
                    self.schedule(*action[1], tag=f"between{count}.{index}")
        self.trace.append(("drained", self.drive(None)))
        return {
            "trace": self.trace,
            "now": self.sim.now,
            "events": self.sim.events_dispatched,
            "processes": [
                (p.name, p.finished, p.result, repr(p.error)) for p in self.sim.processes
            ],
        }


@settings(max_examples=300, deadline=None)
@given(PROGRAM)
def test_same_dispatch_order_as_a_when_seq_heap(program):
    expected = Runner(HeapSimulator()).execute(program)
    assert Runner(Simulator()).execute(program) == expected


def test_the_programs_reach_every_case_the_property_names():
    """A fixed program touching each case, so the property cannot go green
    by generating nothing: zero and sub-ulp sleeps, the three kinds of
    future, callbacks scheduled at ``now`` from callbacks, a spawn from a
    process, a process that raises, uneven ``run(until=)`` chunks."""
    program = (
        [
            [("sleep", 1), ("sleep", 1e-17), ("sleep", 0), ("resolved", 4), ("failed", True),
             ("later", 0.5, True), ("callback", ("at-now", 0, 2)), ("spawn", [("raise",)])],
            [("shared", 0), ("later", 0, False), ("bad", -1)],
            [("sleep", 1.0), ("settle", 0, True), ("callback", ("in-zero", 0, 1)), ("failed", False)],
        ],
        [(0.3, [("callback", ("at-now", 0, 1))]), (0, [("spawn", [("sleep", 0.25)])]),
         (-1, [("callback", ("in", 2.5, 0))]), (1, [])],
    )
    expected = Runner(HeapSimulator()).execute(program)
    assert Runner(Simulator()).execute(program) == expected
    kinds = {entry[2] for entry in expected["trace"] if entry[1:2] == ("run raised",)}
    assert kinds == {"Boom", "SimError"}
    assert any(entry[2:3] == ("caught",) for entry in expected["trace"])
    instants = [entry[0] for entry in expected["trace"] if isinstance(entry[0], float)]
    assert max(instants.count(t) for t in set(instants)) >= 8  # real pile-ups
    assert expected["events"] >= 30
