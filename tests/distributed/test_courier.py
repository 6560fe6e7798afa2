"""Tests for the message courier (delivery modes, channels, reordering)."""

import pytest

from repro.distributed.courier import Courier
from repro.sim.engine import Simulator


class TestImmediateMode:
    def test_dispatch_runs_synchronously(self):
        courier = Courier()
        seen = []
        courier.dispatch(lambda: seen.append(1))
        assert seen == [1]
        assert courier.delivered == 1


class TestManualMode:
    def test_messages_queue_until_pumped(self):
        courier = Courier(manual=True)
        seen = []
        courier.dispatch(lambda: seen.append(1))
        courier.dispatch(lambda: seen.append(2))
        assert seen == []
        assert courier.pending() == 2
        courier.pump(1)
        assert seen == [1]
        courier.pump()
        assert seen == [1, 2]

    def test_pump_runs_newly_enqueued_messages(self):
        courier = Courier(manual=True)
        seen = []

        def first():
            seen.append("a")
            courier.dispatch(lambda: seen.append("b"))

        courier.dispatch(first)
        courier.pump()
        assert seen == ["a", "b"]

    def test_defer_rotates_head_to_tail(self):
        courier = Courier(manual=True)
        seen = []
        courier.dispatch(lambda: seen.append(1))
        courier.dispatch(lambda: seen.append(2))
        courier.defer(1)
        courier.pump()
        assert seen == [2, 1]

    def test_defer_more_than_pending_is_safe(self):
        courier = Courier(manual=True)
        courier.dispatch(lambda: None)
        courier.defer(10)
        assert courier.pending() == 1

    def test_channel_filtered_pump(self):
        courier = Courier(manual=True)
        seen = []
        courier.dispatch(lambda: seen.append("d1"))
        courier.dispatch(lambda: seen.append("s1"), channel="snapshot")
        courier.dispatch(lambda: seen.append("d2"))
        courier.pump(channel="default")
        assert seen == ["d1", "d2"]
        assert courier.pending("snapshot") == 1
        courier.pump(channel="snapshot")
        assert seen == ["d1", "d2", "s1"]

    def test_channel_order_preserved_within_channel(self):
        courier = Courier(manual=True)
        seen = []
        for i in range(3):
            courier.dispatch(lambda i=i: seen.append(i), channel="snapshot")
        courier.pump(1, channel="snapshot")
        courier.pump(channel="snapshot")
        assert seen == [0, 1, 2]

    def test_unmatched_messages_keep_front_position(self):
        courier = Courier(manual=True)
        seen = []
        courier.dispatch(lambda: seen.append("s"), channel="snapshot")
        courier.dispatch(lambda: seen.append("d"))
        courier.pump(channel="default")
        courier.pump()  # unfiltered: snapshot message still deliverable
        assert seen == ["d", "s"]


class TestManualJitter:
    """Manual mode with a latency source: deterministic reordering by
    virtual arrival time (send tick + drawn latency)."""

    def test_constant_latency_keeps_fifo(self):
        courier = Courier(manual=True, latency=7.5)
        seen = []
        for i in range(4):
            courier.dispatch(lambda i=i: seen.append(i))
        courier.pump()
        assert seen == [0, 1, 2, 3], "uniform delay cannot reorder"

    def test_latency_callable_reorders_deliveries(self):
        delays = iter([10.0, 0.0])
        courier = Courier(manual=True, latency=lambda: next(delays))
        order = []
        courier.dispatch(lambda: order.append("slow"))
        courier.dispatch(lambda: order.append("fast"))
        courier.pump()
        assert order == ["fast", "slow"]

    def test_seeded_jitter_is_deterministic(self):
        import random

        def run(seed):
            rng = random.Random(seed)
            courier = Courier(manual=True, latency=lambda: rng.expovariate(0.5))
            order = []
            for i in range(20):
                courier.dispatch(lambda i=i: order.append(i))
            courier.pump()
            return order

        assert run(3) == run(3)
        assert run(3) != run(4), "different seeds draw different arrivals"
        assert sorted(run(3)) == list(range(20)), "reordered, never lost"

    def test_negative_latency_clamps_to_send_order(self):
        courier = Courier(manual=True, latency=-5.0)
        seen = []
        courier.dispatch(lambda: seen.append(1))
        courier.dispatch(lambda: seen.append(2))
        courier.pump()
        assert seen == [1, 2]


class TestSimulatedMode:
    def test_latency_schedules_on_the_clock(self):
        sim = Simulator()
        courier = Courier(sim=sim, latency=3.0)
        seen = []
        courier.dispatch(lambda: seen.append(sim.now))
        assert seen == []
        sim.run()
        assert seen == [3.0]

    def test_callable_latency(self):
        sim = Simulator()
        delays = iter([5.0, 1.0])
        courier = Courier(sim=sim, latency=lambda: next(delays))
        order = []
        courier.dispatch(lambda: order.append("slow"))
        courier.dispatch(lambda: order.append("fast"))
        sim.run()
        assert order == ["fast", "slow"], "latency reorders delivery"

    def test_sim_and_manual_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Courier(sim=Simulator(), manual=True)
