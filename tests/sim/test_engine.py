"""Tests for the discrete-event simulation engine."""

import math

import pytest

from repro.core.futures import OpFuture
from repro.sim.engine import SimError, Simulator


class TestEventLoop:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.call_at(5, lambda: seen.append("b"))
        sim.call_at(1, lambda: seen.append("a"))
        sim.call_at(9, lambda: seen.append("c"))
        sim.run()
        assert seen == ["a", "b", "c"]
        assert sim.now == 9

    def test_same_time_fifo(self):
        sim = Simulator()
        seen = []
        sim.call_at(1, lambda: seen.append(1))
        sim.call_at(1, lambda: seen.append(2))
        sim.run()
        assert seen == [1, 2]

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.call_at(5, lambda: None)
        sim.run()
        with pytest.raises(SimError, match="in the past"):
            sim.call_at(1, lambda: None)

    @pytest.mark.parametrize("when", [math.nan, math.inf])
    def test_scheduling_at_a_non_finite_time_rejected(self, when):
        """A NaN ``when`` compares false with everything, so unchecked it
        would be queued and fire before an event at 1.0; ``inf`` would move
        the clock to ``inf``."""
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: seen.append(1.0))
        with pytest.raises(SimError, match="non-finite"):
            sim.call_at(when, lambda: seen.append(when))
        sim.run()
        assert seen == [1.0] and sim.now == 1.0

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
    def test_call_in_a_non_finite_delay_rejected(self, delay):
        sim = Simulator()
        with pytest.raises(SimError, match="non-finite|in the past"):
            sim.call_in(delay, lambda: None)
        assert sim.run() == 0.0 and sim.events_dispatched == 0

    def test_run_until_stops_early(self):
        sim = Simulator()
        seen = []
        sim.call_at(1, lambda: seen.append(1))
        sim.call_at(10, lambda: seen.append(10))
        sim.run(until=5)
        assert seen == [1]
        assert sim.now == 5
        sim.run()
        assert seen == [1, 10]

    def test_the_clock_is_always_a_float(self):
        """An int ``when`` or ``until`` leaves the clock a float, as a
        yielded delay does."""
        sim = Simulator()
        sim.call_at(5, lambda: None)
        sim.run()
        assert sim.now == 5 and type(sim.now) is float
        assert sim.run(until=7) == 7 and type(sim.now) is float


class TestProcesses:
    def test_delay_yields_advance_time(self):
        sim = Simulator()
        marks = []

        def proc():
            yield 3
            marks.append(sim.now)
            yield 2.5
            marks.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert marks == [3, 5.5]

    def test_future_yield_suspends_until_resolved(self):
        sim = Simulator()
        future = OpFuture("op")
        got = []

        def waiter():
            value = yield future
            got.append((sim.now, value))

        def resolver():
            yield 7
            future.resolve("done")

        sim.spawn(waiter())
        sim.spawn(resolver())
        sim.run()
        assert got == [(7, "done")]

    def test_failed_future_throws_into_process(self):
        sim = Simulator()
        future = OpFuture("op")
        caught = []

        def waiter():
            try:
                yield future
            except RuntimeError as exc:
                caught.append(str(exc))

        def failer():
            yield 1
            future.fail(RuntimeError("boom"))

        sim.spawn(waiter())
        sim.spawn(failer())
        sim.run()
        assert caught == ["boom"]

    def test_process_return_value_captured(self):
        sim = Simulator()

        def proc():
            yield 1
            return 42

        p = sim.spawn(proc())
        sim.run()
        assert p.finished
        assert p.result == 42

    def test_unhandled_process_exception_propagates(self):
        sim = Simulator()

        def bad():
            yield 1
            raise ValueError("oops")

        p = sim.spawn(bad())
        with pytest.raises(ValueError, match="oops"):
            sim.run()
        assert p.error is not None

    def test_invalid_yield_rejected(self):
        sim = Simulator()

        def bad():
            yield "nonsense"

        sim.spawn(bad())
        with pytest.raises(SimError, match="expected a delay or an OpFuture"):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()

        def bad():
            yield -1

        sim.spawn(bad())
        with pytest.raises(SimError, match="negative"):
            sim.run()

    @pytest.mark.parametrize(
        "delay, kind", [(math.nan, "non-finite"), (math.inf, "non-finite"), (-math.inf, "negative")]
    )
    def test_non_finite_delay_rejected(self, delay, kind):
        """Unchecked, ``yield nan`` would move the clock from 2.0 to ``nan``
        and back to 3.0 at the next event, and ``yield inf`` to ``inf``."""
        sim = Simulator()
        sim.call_at(3.0, lambda: None)

        def bad():
            yield 2.0
            yield delay

        sim.spawn(bad())
        with pytest.raises(SimError, match=kind):
            sim.run()
        assert sim.now == 2.0
        assert sim.run() == 3.0

    def test_blocked_process_detected_at_drain(self):
        sim = Simulator()
        never = OpFuture("never")

        def stuck():
            yield never

        sim.spawn(stuck(), name="stuck")
        sim.run()
        blocked = sim.blocked_processes()
        assert [p.name for p in blocked] == ["stuck"]
        assert not sim.all_finished()

    def test_a_sleeper_is_not_blocked(self):
        """``run(until=)`` stops with one client asleep and one parked on a
        future nobody will settle: only the second has no queued resumption."""
        sim = Simulator()
        never = OpFuture("never")

        def sleeper():
            yield 10

        def stuck():
            yield 1
            yield never

        def starts_now():
            yield 0

        sim.spawn(sleeper(), name="sleeper")
        sim.spawn(stuck(), name="stuck")
        sim.run(until=5)
        sim.spawn(starts_now(), name="starts-now")  # queued at ``now``, not yet run
        assert [p.name for p in sim.blocked_processes()] == ["stuck"]
        sim.run()
        assert [p.name for p in sim.blocked_processes()] == ["stuck"]
        never.resolve(None)
        assert sim.blocked_processes() == []  # its resumption is queued
        sim.run()
        assert sim.all_finished()


class TestDeterminism:
    def test_identical_runs_produce_identical_fingerprints(self):
        def build():
            sim = Simulator()
            futures = [OpFuture(str(i)) for i in range(3)]

            def producer():
                for i, f in enumerate(futures):
                    yield 2
                    f.resolve(i)

            def consumer(f):
                value = yield f
                yield value + 0.5

            sim.spawn(producer())
            for f in futures:
                sim.spawn(consumer(f))
            sim.run()
            return sim.now, sim.events_dispatched

        assert build() == build()

