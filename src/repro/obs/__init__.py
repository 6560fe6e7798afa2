"""repro.obs — unified tracing and metrics for the reproduction.

Three pieces, designed to keep the paper's observability claims honest:

* :mod:`repro.obs.tracer` — structured, virtual-time-stamped events with a
  no-op :data:`NULL_TRACER` default (near-zero cost when disabled);
* :mod:`repro.obs.metrics` — counters, gauges, HDR-style histograms behind
  a :class:`MetricsRegistry` that backs every scheduler's counters;
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

from repro.obs.exporters import (
    ConsoleSummaryExporter,
    JsonlExporter,
    RingBufferExporter,
)
from repro.obs.instrument import (
    Instrumentation,
    attach_tracer,
    subscribe_version_control,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
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
    build_span_trees,
    start_span,
    transaction_trees,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "ConsoleSummaryExporter",
    "Counter",
    "CriticalPath",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "JsonlExporter",
    "MetricsRegistry",
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
    "build_span_trees",
    "critical_path",
    "phase_shares",
    "start_span",
    "subscribe_version_control",
    "transaction_trees",
]
