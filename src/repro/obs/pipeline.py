"""One-stop observability pipeline: exporters + tracer + attach in one object.

Every traced run in this repo used to hand-roll the same four steps —
build exporters, build a ``Tracer`` on the simulator clock, ``attach_tracer``
to the subject, remember to detach and close — and ``drill``, ``bench``,
and the campaigns each did it slightly differently.  :class:`ObsPipeline`
is that recipe as one object:

    with ObsPipeline(sim=sim, ring=65_536, engine=engine) as pipeline:
        pipeline.attach(scheduler)
        sim.run()
    verdict = pipeline.engine.report()

``close()`` (or the ``with`` exit) detaches every instrumentation handle,
finishes the SLO engine (closing its final window), and closes every
exporter — which for :class:`~repro.obs.exporters.JsonlExporter` means a
deterministic flush, so a trace file is always complete and parseable the
moment the pipeline closes.

With no exporters requested the pipeline degrades to ``NULL_TRACER`` and
costs nothing — callers can build one unconditionally and let the flags
decide.
"""

from __future__ import annotations

from functools import partial
from typing import IO, Any

from repro.obs.exporters import JsonlExporter, RingBufferExporter
from repro.obs.instrument import Instrumentation, attach_tracer
from repro.obs.tracer import NULL_TRACER, Tracer


class ObsPipeline:
    """Compose exporters, a virtual-time tracer, and instrumentation handles.

    Args:
        sim: simulator whose clock stamps events.
        ring: capacity for an in-memory :class:`RingBufferExporter`.
        jsonl: path or stream for a :class:`JsonlExporter`.
        engine: a :class:`~repro.obs.slo.SLOEngine` to evaluate online.
        witness: a :class:`~repro.obs.witness.WitnessEngine` certifying
            the ``history.*`` stream live (finished on close, like the
            SLO engine).
    """

    def __init__(
        self,
        *,
        sim: Any | None = None,
        ring: int | None = None,
        jsonl: str | IO[str] | None = None,
        engine: Any | None = None,
        witness: Any | None = None,
    ):
        self.ring = RingBufferExporter(capacity=ring) if ring else None
        self.jsonl = JsonlExporter(jsonl) if jsonl is not None else None
        self.engine = engine
        self.witness = witness
        exporters = [
            exporter
            for exporter in (self.ring, self.jsonl, engine, witness)
            if exporter is not None
        ]
        if exporters:
            # partial(getattr, ...) reads the clock with no Python frame.
            clock = partial(getattr, sim, "now") if sim is not None else None
            self.tracer: Tracer = Tracer(exporters=exporters, clock=clock)
        else:
            self.tracer = NULL_TRACER
        self._handles: list[Instrumentation] = []
        self._closed = False

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def attach(self, target: Any) -> Instrumentation:
        """Wire the pipeline's tracer through ``target`` (see
        :func:`repro.obs.instrument.attach_tracer`); detached on close.

        Once per topology: the target keeps tracing the parts it rebuilds
        (a restarted site, a promoted primary), so nothing re-attaches.
        """
        handle = attach_tracer(target, self.tracer)
        self._handles.append(handle)
        return handle

    def events(self) -> list[dict[str, Any]]:
        """The dicts of the ring buffer's events, built on this call
        (empty without a ring)."""
        return self.ring.events() if self.ring is not None else []

    def detach(self) -> None:
        for handle in self._handles:
            handle.detach()
        self._handles.clear()

    def close(self) -> None:
        """Detach, finish the engine, close every exporter.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.detach()
        if self.tracer is not NULL_TRACER:
            self.tracer.close()  # engine/witness finish() rides close()
        else:
            if self.engine is not None:
                self.engine.finish()
            if self.witness is not None:
                self.witness.finish()

    def __enter__(self) -> "ObsPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
