"""FaultyCourier behavior across the three delivery modes."""

import pytest

from repro.faults import FaultSchedule, FaultSpec, FaultyCourier, PartitionWindow, RetryPolicy
from repro.obs import RingBufferExporter, Tracer
from repro.sim.engine import Simulator


def make_courier(spec, seed=0, **kw):
    return FaultyCourier(schedule=FaultSchedule(spec, seed=seed), **kw)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_backoff_grows_and_caps(self):
        import random

        policy = RetryPolicy(base=1.0, factor=2.0, cap=8.0, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(n, rng) for n in range(6)]
        assert delays[:4] == [1.0, 2.0, 4.0, 8.0]
        assert delays[4] == delays[5] == 8.0  # capped

    def test_jitter_bounds(self):
        import random

        policy = RetryPolicy(base=1.0, factor=1.0, cap=10.0, jitter=0.5)
        rng = random.Random(1)
        for n in range(50):
            assert 0.5 <= policy.delay(0, rng) <= 1.5


class TestImmediateMode:
    def test_duplicate_runs_handler_twice(self):
        courier = make_courier(FaultSpec(duplicate=1.0))
        runs = []
        courier.dispatch(lambda: runs.append(1))
        assert len(runs) == 2
        assert courier.schedule.counts.duplicates == 1

    def test_certain_drop_still_delivers_after_retries(self):
        """The retry backstop forces delivery; nothing is silently lost."""
        courier = make_courier(
            FaultSpec(drop=1.0), retry=RetryPolicy(max_attempts=3)
        )
        runs = []
        courier.dispatch(lambda: runs.append(1))
        assert runs == [1]
        assert courier.schedule.counts.retries_exhausted == 1

    def test_explicit_partition_parks_and_heals(self):
        courier = make_courier(FaultSpec())
        runs = []
        courier.partition("2pc")
        courier.dispatch(lambda: runs.append("a"), channel="2pc")
        courier.dispatch(lambda: runs.append("b"), channel="data")
        assert runs == ["b"]
        assert courier.parked("2pc") == 1
        courier.heal("2pc")
        assert runs == ["b", "a"]
        assert courier.parked() == 0


class TestManualMode:
    def test_drop_slides_arrival_behind_later_sends(self):
        spec = FaultSpec(drop=1.0)
        # Find a seed/order where the dropped message's backoff pushes it
        # behind a later clean message — deterministic given the seed.
        courier = FaultyCourier(
            schedule=FaultSchedule(spec, seed=0),
            retry=RetryPolicy(base=5.0, jitter=0.0, max_attempts=2),
            manual=True,
        )
        order = []
        courier.dispatch(lambda: order.append("first"), channel="data")
        courier.schedule.overrides["data"] = FaultSpec()  # later sends clean
        courier.dispatch(lambda: order.append("second"), channel="data")
        courier.pump()
        assert order == ["second", "first"]

    def test_duplicate_enqueues_twice(self):
        courier = make_courier(FaultSpec(duplicate=1.0), manual=True)
        runs = []
        courier.dispatch(lambda: runs.append(1))
        assert courier.pending() == 2
        courier.pump()
        assert runs == [1, 1]

    def test_clean_schedule_preserves_fifo(self):
        courier = make_courier(FaultSpec(), manual=True)
        order = []
        for i in range(5):
            courier.dispatch(lambda i=i: order.append(i))
        courier.pump()
        assert order == [0, 1, 2, 3, 4]


class TestSimulatedMode:
    def test_drop_retransmits_in_virtual_time(self):
        sim = Simulator()
        courier = FaultyCourier(
            schedule=FaultSchedule(FaultSpec(drop=1.0), seed=0),
            retry=RetryPolicy(base=2.0, jitter=0.0, max_attempts=3),
            sim=sim,
        )
        arrivals = []
        courier.dispatch(lambda: arrivals.append(sim.now))
        sim.run()
        assert len(arrivals) == 1
        # Two failed attempts back off 2.0 + 4.0 before the forced delivery.
        assert arrivals[0] == pytest.approx(6.0)
        assert courier.schedule.counts.retries_exhausted == 1

    def test_duplicate_delivers_twice(self):
        sim = Simulator()
        courier = make_courier(FaultSpec(duplicate=1.0), sim=sim)
        runs = []
        courier.dispatch(lambda: runs.append(sim.now))
        sim.run()
        assert len(runs) == 2

    def test_partition_window_defers_to_heal_time(self):
        sim = Simulator()
        spec = FaultSpec(partitions=(PartitionWindow("2pc", 0.0, 50.0),))
        courier = make_courier(spec, sim=sim)
        arrivals = []
        courier.dispatch(lambda: arrivals.append(sim.now), channel="2pc")
        courier.dispatch(lambda: arrivals.append(("data", sim.now)), channel="data")
        sim.run()
        assert ("data", 0.0) in arrivals
        (deferred,) = [a for a in arrivals if not isinstance(a, tuple)]
        assert deferred >= 50.0
        assert courier.schedule.counts.partition_deferrals == 1

    def test_delay_spike_adds_latency(self):
        sim = Simulator()
        courier = make_courier(FaultSpec(delay_spike=1.0, spike_factor=10.0), sim=sim)
        arrivals = []
        courier.dispatch(lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals[0] >= 5.0  # spike is at least 0.5 * spike_factor


class TestTraceEvents:
    def test_faults_emit_trace_events(self):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        courier = make_courier(
            FaultSpec(drop=1.0), retry=RetryPolicy(max_attempts=2)
        )
        courier.tracer = tracer
        courier.dispatch(lambda: None)
        names = {e["name"] for e in ring.events()}
        assert "fault.drop" in names or "fault.retry.exhausted" in names

    def test_partition_events(self):
        ring = RingBufferExporter()
        courier = make_courier(FaultSpec())
        courier.tracer = Tracer(exporters=[ring])
        courier.partition("x")
        courier.dispatch(lambda: None, channel="x")
        courier.heal("x")
        names = [e["name"] for e in ring.events()]
        assert names[:3] == [
            "fault.partition.start",
            "fault.partition.hold",
            "fault.partition.heal",
        ]


class TestDeterminism:
    def test_same_seed_same_manual_delivery_order(self):
        def run(seed):
            courier = make_courier(
                FaultSpec(drop=0.3, duplicate=0.3, delay_spike=0.3),
                seed=seed,
                manual=True,
            )
            order = []
            for i in range(30):
                courier.dispatch(lambda i=i: order.append(i), channel=f"c{i % 3}")
            courier.pump()
            return order

        assert run(5) == run(5)
        assert run(5) != run(6)
