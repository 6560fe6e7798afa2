"""Structured event tracing with virtual-time stamps.

The paper's claims are observability statements — "read-only transactions
have no concurrency-control overhead", "visibility may lag" — so the tracer
is a first-class subsystem rather than debug printf.  Design constraints:

* **Near-zero cost when disabled.**  Every instrumentation site is written
  as ``if tracer.enabled: tracer.emit(...)`` so a disabled tracer costs one
  attribute load and a falsy test.  :data:`NULL_TRACER` (the default on
  every component) has no exporters, so :meth:`Tracer.emit` returns at
  once and even un-guarded call sites are cheap.
* **Virtual time, not wall time.**  Simulated runs stamp events with the
  simulator's clock (``ObsPipeline`` reads ``sim.now``); outside a
  simulation the default clock is a deterministic monotone sequence, which
  keeps traces reproducible and diffable.
* **Pluggable exporters** (:mod:`repro.obs.exporters`): ring buffer, JSONL
  file, and the two stream consumers (the SLO engine and the 1SR witness).
* **An event is a record, not a dict.**  ``emit(name, *fields,
  **optional)`` takes the required fields positionally, in registry order
  (:mod:`repro.obs.events`), builds one tuple and hands that same object
  to every sink of the name; a dict is built only where an event is kept.
* **Compiled fan-out.**  An exporter with ``route(name)`` subscribes by
  name: it returns the callable that takes events of that name, or
  ``None``; one without ``route`` takes every name through ``export``.
  The tracer compiles each name's tuple of sinks on its first emit (and
  again after ``add_exporter``/``remove_exporter``), so an event reaches
  only the consumers that use it, and a name nobody takes builds nothing.
  :func:`replay` turns a recorded trace's dicts back into records
  (:func:`repro.obs.events.record`) and routes them through the same table.

Event names form dotted families (``txn.*``, ``cc.*``, ``vc.*``,
``lock.*``, ``gc.*``, ``wal.*``, ``sim.*``, ``span.*``) — every name is
registered in :mod:`repro.obs.events`, which ``docs/observability.md``'s
schema table is rendered from.

Causal spans (:mod:`repro.obs.spans`) build on two small hooks here: the
tracer hands out process-unique span/trace ids, and it carries an
``active_span`` slot — the ambient :class:`~repro.obs.spans.SpanContext`
restored around courier message deliveries.  While a span is active, every
flat ``emit`` is stamped with its ``span``/``trace`` ids, so ordinary
events (``wal.force``, ``lock.grant``, ``fault.drop``) attach to the span
tree without their call sites knowing about spans at all (the record
carries the context; its dict gets the ids).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable

from repro.obs.events import record


class Tracer:
    """Fan-out tracer: stamps events with its clock and feeds the sinks
    compiled for each name.

    Args:
        exporters: initial exporter list; more can be added later.
        clock: zero-argument callable returning the current (virtual) time.
            Defaults to a deterministic monotone counter so stand-alone
            traces are reproducible.
    """

    enabled: bool = True

    def __init__(
        self,
        exporters: Iterable[Any] = (),
        clock: Callable[[], float] | None = None,
    ):
        self._exporters: list[Any] = list(exporters)
        #: Event name -> the sinks it goes to, compiled on its first emit.
        self._sinks: dict[str, tuple[Callable[[tuple], None], ...]] = {}
        self._seq = itertools.count()
        self._span_seq = itertools.count(1)
        self._trace_seq = itertools.count(1)
        #: Ambient span context (see repro.obs.spans); None between spans.
        self.active_span: Any = None
        self.clock: Callable[[], float] = clock if clock is not None else self._tick

    def _tick(self) -> float:
        return float(next(self._seq))

    # -- span id allocation (used by repro.obs.spans) --------------------------

    def next_span_id(self) -> int:
        return next(self._span_seq)

    def next_trace_id(self) -> int:
        return next(self._trace_seq)

    # -- exporter management --------------------------------------------------

    def add_exporter(self, exporter: Any) -> None:
        self._exporters.append(exporter)
        self._sinks.clear()

    def remove_exporter(self, exporter: Any) -> None:
        self._exporters.remove(exporter)
        self._sinks.clear()

    def _compile(self, name: str) -> tuple[Callable[[tuple], None], ...]:
        """The callables an event of ``name`` goes to: each exporter's
        ``route(name)`` when it has one (``None`` leaves it out), else its
        ``export``.  Cached per name until the exporter list changes."""
        sinks = []
        for exporter in self._exporters:
            route = getattr(exporter, "route", None)
            sink = route(name) if route is not None else exporter.export
            if sink is not None:
                sinks.append(sink)
        compiled = self._sinks[name] = tuple(sinks)
        return compiled

    # -- emitting --------------------------------------------------------------

    def emit(self, name: str, *fields: Any, **optional: Any) -> tuple | None:
        """Stamp and export one event.  Cheap no-op when no exporter listens.

        ``fields`` are the name's required fields, in registry order;
        ``optional`` its optional ones.  A name with no sink builds
        nothing, reads no clock and returns ``None``; otherwise every sink
        receives the same record, ``(name, ts, fields, optional-or-None,
        active span)``, and it is returned (the span layer reads its
        ``ts``).
        """
        try:
            sinks = self._sinks[name]
        except KeyError:
            sinks = self._compile(name)
        if not sinks:
            return None
        event = (name, self.clock(), fields, optional or None, self.active_span)
        for sink in sinks:
            sink(event)
        return event

    def close(self) -> None:
        """Close every exporter that supports closing (flushes files)."""
        for exporter in self._exporters:
            close = getattr(exporter, "close", None)
            if close is not None:
                close()


def replay(events: Iterable[dict[str, Any]], *exporters: Any) -> None:
    """Route recorded events (``load_trace``'s dicts) to ``exporters`` as
    records, through the table a live :class:`Tracer` compiles, so each
    consumer takes on replay exactly the events it would have taken live."""
    tracer = Tracer(exporters)
    sinks_of = tracer._sinks.get
    for event in events:
        event = record(event)
        name = event[0]
        sinks = sinks_of(name)
        if sinks is None:
            sinks = tracer._compile(name)
        for sink in sinks:
            sink(event)


class NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op.

    Shared singleton :data:`NULL_TRACER` is the default ``tracer`` attribute
    of every instrumented component, so the hot path never branches on
    ``None`` and the overhead guard (``tests/test_obs_overhead.py``) can
    hold the disabled cost below 5%.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def add_exporter(self, exporter: Any) -> None:
        raise ValueError("NULL_TRACER is shared and immutable; create a Tracer()")


#: Shared disabled tracer — the default everywhere.
NULL_TRACER = NullTracer()
