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
  simulator's clock (``tracer.clock = lambda: sim.now``); outside a
  simulation the default clock is a deterministic monotone sequence, which
  keeps traces reproducible and diffable.
* **Pluggable exporters** (:mod:`repro.obs.exporters`): ring buffer, JSONL
  file, and the two stream consumers (the SLO engine and
  the 1SR witness).  An event is one dict — ``name``, ``ts``, then its
  fields in emit order, the form one JSONL trace line decodes to — built
  once at emit time and handed to every exporter, so a consumer reads a
  live run and a replayed trace through the same ``export``.  Exporters
  never see events from a disabled tracer.

Event names form dotted families (``txn.*``, ``cc.*``, ``vc.*``,
``lock.*``, ``gc.*``, ``wal.*``, ``sim.*``, ``span.*``) — the schema is
documented in ``docs/observability.md`` and consumed by
:mod:`repro.obs.analyze`.

Causal spans (:mod:`repro.obs.spans`) build on two small hooks here: the
tracer hands out process-unique span/trace ids, and it carries an
``active_span`` slot — the ambient :class:`~repro.obs.spans.SpanContext`
restored around courier message deliveries.  While a span is active, every
flat ``emit`` is stamped with its ``span``/``trace`` ids, so ordinary
events (``wal.force``, ``lock.grant``, ``fault.drop``) attach to the span
tree without their call sites knowing about spans at all.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable


class Tracer:
    """Fan-out tracer: stamps events with its clock and feeds every exporter.

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

    def remove_exporter(self, exporter: Any) -> None:
        self._exporters.remove(exporter)

    # -- emitting --------------------------------------------------------------

    def emit(self, name: str, **fields: Any) -> dict[str, Any] | None:
        """Stamp and export one event.  Cheap no-op when no exporter listens.

        While a span context is active (see :mod:`repro.obs.spans`), the
        event is stamped with its ``span``/``trace`` ids unless the caller
        supplied them — this is how flat events from components that know
        nothing about spans end up attached to the right span tree.
        Returns the exported event dict (the span layer reads its ``ts``);
        every exporter received that same object.
        """
        if not self._exporters:
            return None
        active = self.active_span
        if active is not None and "span" not in fields:
            fields["span"] = active.span_id
            fields["trace"] = active.trace_id
        event = {"name": name, "ts": self.clock(), **fields}
        for exporter in self._exporters:
            exporter.export(event)
        return event

    def close(self) -> None:
        """Close every exporter that supports closing (flushes files)."""
        for exporter in self._exporters:
            close = getattr(exporter, "close", None)
            if close is not None:
                close()


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
