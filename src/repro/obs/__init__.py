"""repro.obs — unified tracing for the reproduction.

The pieces, designed to keep the paper's observability claims honest
(the counts themselves live on each scheduler's
:class:`~repro.core.interface.SchedulerCounters`):

* :mod:`repro.obs.tracer` — structured, virtual-time-stamped events with a
  no-op :data:`NULL_TRACER` default (near-zero cost when disabled);
* :mod:`repro.obs.exporters` / :mod:`repro.obs.instrument` /
  :mod:`repro.obs.analyze` — where events go, how they get wired through a
  scheduler, and how a recorded trace is read back
  (``python -m repro trace``);
* :mod:`repro.obs.pipeline` — the one-stop recipe (exporters + tracer +
  attach/detach/close) every traced run composes from;
* :mod:`repro.obs.slo` — continuous SLO watchdogs and the breach-triggered
  flight recorder (``python -m repro watch``), see ``docs/slo.md``.

See ``docs/observability.md`` for the event-name schema and CLI usage.
"""

from repro.obs.exporters import JsonlExporter, RingBufferExporter
from repro.obs.instrument import (
    Instrumentation,
    attach_tracer,
    subscribe_version_control,
)
from repro.obs.pipeline import ObsPipeline
from repro.obs.profile import (
    CriticalPath,
    aggregate_phase_shares,
    critical_path,
    phase_shares,
)
from repro.obs.spans import (
    NULL_SPAN,
    Span,
    SpanContext,
    SpanNode,
    activate,
    bind_envelope,
    start_span,
    transaction_trees,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "CriticalPath",
    "Instrumentation",
    "JsonlExporter",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "ObsPipeline",
    "RingBufferExporter",
    "Span",
    "SpanContext",
    "SpanNode",
    "Tracer",
    "activate",
    "aggregate_phase_shares",
    "attach_tracer",
    "bind_envelope",
    "critical_path",
    "phase_shares",
    "start_span",
    "subscribe_version_control",
    "transaction_trees",
]
