"""Circuit breaker state machine under an injected virtual clock."""

import pytest

from repro.obs.exporters import RingBufferExporter
from repro.obs.tracer import Tracer
from repro.qos.breaker import CLOSED, HALF_OPEN, OPEN, BreakerBoard, CircuitBreaker


class Clock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def make(self, threshold=3, recovery=10.0):
        clock = Clock()
        breaker = CircuitBreaker(
            name="s1", failure_threshold=threshold, recovery_time=recovery, clock=clock
        )
        return breaker, clock

    def test_stays_closed_below_threshold(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_success_resets_failure_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_trips_open_at_threshold(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1
        assert not breaker.allow()
        assert breaker.fast_fails == 1

    def test_half_open_after_recovery_time(self):
        breaker, clock = self.make(threshold=1, recovery=10.0)
        breaker.record_failure()
        clock.now = 9.9
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.allow(), "recovery elapsed: one probe goes through"
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(), "only a single probe at a time"

    def test_probe_success_closes(self):
        breaker, clock = self.make(threshold=1, recovery=5.0)
        breaker.record_failure()
        clock.now = 5.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_clock(self):
        breaker, clock = self.make(threshold=1, recovery=5.0)
        breaker.record_failure()
        clock.now = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 2
        clock.now = 9.0  # only 4 units since the re-open
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.allow()

    def test_transitions_emit_qos_breaker_events(self):
        ring = RingBufferExporter()
        breaker, clock = self.make(threshold=1, recovery=5.0)
        breaker.tracer = Tracer(exporters=[ring])
        breaker.record_failure()
        clock.now = 5.0
        breaker.allow()
        breaker.record_success()
        states = [e["state"] for e in ring.events() if e["name"] == "qos.breaker"]
        assert states == [OPEN, HALF_OPEN, CLOSED]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestBreakerBoard:
    def test_one_breaker_per_site(self):
        board = BreakerBoard(failure_threshold=1)
        board.record_failure(1)
        assert not board.allow(1)
        assert board.allow(2), "site 2's breaker is independent"
        assert board.states() == {1: OPEN, 2: CLOSED}

    def test_bind_clock_reaches_existing_breakers(self):
        board = BreakerBoard(failure_threshold=1, recovery_time=5.0)
        board.record_failure(1)  # breaker created with the default clock
        clock = Clock(100.0)
        board.bind_clock(clock)
        assert board.allow(1), "late-bound clock drives recovery"

    def test_tracer_fans_out_to_existing_breakers(self):
        ring = RingBufferExporter()
        board = BreakerBoard(failure_threshold=1)
        breaker = board.for_site(1)  # created before the tracer attach
        board.tracer = Tracer(exporters=[ring])
        assert breaker.tracer.enabled
        board.record_failure(1)
        assert any(e["name"] == "qos.breaker" for e in ring.events())
