"""Admission controller: tokens, bounded queues, shedding policies."""

import pytest

from repro.errors import Overloaded
from repro.obs.exporters import RingBufferExporter
from repro.obs.tracer import Tracer
from repro.qos import POLICIES, AdmissionController


class TestSynchronousAdmit:
    def test_admits_up_to_capacity_then_sheds(self):
        gate = AdmissionController(capacity=2)
        gate.admit()
        gate.admit()
        with pytest.raises(Overloaded) as exc_info:
            gate.admit()
        assert exc_info.value.policy == "fifo"
        assert gate.in_flight == 2
        assert gate.admitted == 2
        assert gate.shed == 1

    def test_release_frees_a_token(self):
        gate = AdmissionController(capacity=1)
        gate.admit()
        gate.release()
        gate.admit()  # does not raise
        assert gate.admitted == 2

    def test_try_admit_returns_bool(self):
        gate = AdmissionController(capacity=1)
        assert gate.try_admit()
        assert not gate.try_admit()
        assert gate.shed == 1

    def test_release_without_admit_rejected(self):
        gate = AdmissionController(capacity=1)
        with pytest.raises(ValueError):
            gate.release()

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(capacity=0)
        with pytest.raises(ValueError):
            AdmissionController(queue_limit=-1)
        with pytest.raises(ValueError):
            AdmissionController(policy="random")


class TestAcquireQueueing:
    def test_immediate_grant_when_tokens_free(self):
        gate = AdmissionController(capacity=1)
        assert gate.acquire().done

    def test_waiter_granted_on_release_fifo(self):
        gate = AdmissionController(capacity=1, queue_limit=4)
        first = gate.acquire()
        second = gate.acquire()
        third = gate.acquire()
        assert first.done and second.pending and third.pending
        gate.release()
        assert second.done and third.pending, "FIFO: oldest waiter first"
        gate.release()
        assert third.done

    def test_fifo_overflow_sheds_the_new_arrival(self):
        gate = AdmissionController(capacity=1, queue_limit=1)
        gate.acquire()
        waiting = gate.acquire()
        newcomer = gate.acquire()
        assert waiting.pending
        assert newcomer.failed
        assert isinstance(newcomer.error, Overloaded)

    def test_lifo_shed_serves_newest_sheds_oldest(self):
        gate = AdmissionController(capacity=1, queue_limit=2, policy="lifo-shed")
        gate.acquire()
        oldest = gate.acquire()
        middle = gate.acquire()
        newest = gate.acquire()  # overflow: oldest is shed
        assert oldest.failed and isinstance(oldest.error, Overloaded)
        gate.release()
        assert newest.done, "adaptive LIFO serves the freshest waiter"
        assert middle.pending

    def test_priority_serves_highest_sheds_lowest(self):
        gate = AdmissionController(capacity=1, queue_limit=2, policy="priority")
        gate.acquire(priority=5.0)
        low = gate.acquire(priority=1.0)
        high = gate.acquire(priority=9.0)
        lowest = gate.acquire(priority=0.5)  # overflow: lowest priority loses
        assert lowest.failed
        gate.release()
        assert high.done
        assert low.pending

    def test_priority_ties_break_oldest_first(self):
        gate = AdmissionController(capacity=1, queue_limit=4, policy="priority")
        gate.acquire()
        first = gate.acquire(priority=1.0)
        second = gate.acquire(priority=1.0)
        gate.release()
        assert first.done and second.pending

    def test_queue_limit_zero_sheds_every_overflow(self):
        gate = AdmissionController(capacity=1, queue_limit=0)
        gate.acquire()
        assert gate.acquire().failed
        assert gate.queue_depth == 0


class TestEvents:
    def test_decisions_emit_qos_events(self):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        gate = AdmissionController(capacity=1, queue_limit=1)
        gate.tracer = tracer
        gate.admit()
        with pytest.raises(Overloaded):
            gate.admit()
        queued = gate.acquire()
        gate.release()
        assert queued.done
        names = [event["name"] for event in ring.events()]
        assert "qos.admit" in names
        assert "qos.shed" in names
        assert "qos.queue" in names

    def test_policies_constant_matches_validation(self):
        for policy in POLICIES:
            AdmissionController(policy=policy)
