"""Admission controller: tokens and shedding."""

import pytest

from repro.errors import Overloaded
from repro.obs.exporters import RingBufferExporter
from repro.obs.tracer import Tracer
from repro.qos import AdmissionController


class TestSynchronousAdmit:
    def test_admits_up_to_capacity_then_sheds(self):
        gate = AdmissionController(capacity=2)
        gate.admit()
        gate.admit()
        with pytest.raises(Overloaded):
            gate.admit()
        assert gate.admitted == 2
        assert gate.shed == 1

    def test_release_frees_a_token(self):
        gate = AdmissionController(capacity=1)
        gate.admit()
        gate.release()
        gate.admit()  # does not raise
        assert gate.admitted == 2

    def test_release_without_admit_rejected(self):
        gate = AdmissionController(capacity=1)
        with pytest.raises(ValueError):
            gate.release()

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(capacity=0)


class TestEvents:
    def test_decisions_emit_qos_events(self):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        gate = AdmissionController(capacity=1)
        gate.tracer = tracer
        gate.admit()
        with pytest.raises(Overloaded):
            gate.admit()
        assert [(e["name"], e["in_flight"]) for e in ring.events()] == [
            ("qos.admit", 1),
            ("qos.shed", 1),
        ]
