"""repro.obs.slo — continuous SLO watchdogs over the tracer event stream.

The streaming counterpart of the post-hoc analyzers: declarative
objectives (:mod:`~repro.obs.slo.objectives`) evaluated online over
tumbling windows with EWMA anomaly baselines and hysteresis
(:mod:`~repro.obs.slo.engine`), paired with a breach-triggered flight
recorder (:mod:`~repro.obs.slo.recorder`) that freezes the diagnostic
context the moment a promise is violated.  ``python -m repro watch``
(:mod:`~repro.obs.slo.watch`) replays recorded traces through the same
engine deterministically.

See ``docs/slo.md`` for the signal taxonomy, objective kinds, and the
bundle format.
"""

from repro.obs.slo.engine import SLO_SCHEMA, Breach, SLOEngine
from repro.obs.slo.objectives import (
    Hysteresis,
    MaxObjective,
    Objective,
    PercentileObjective,
    RatioObjective,
    WindowVerdict,
    ZeroObjective,
    availability_objectives,
    bench_objectives,
    default_objectives,
    faults_objectives,
    memory_objectives,
    overload_objectives,
    replication_objectives,
    shard_objectives,
)
from repro.obs.slo.recorder import BUNDLE_SCHEMA, FlightRecorder
from repro.obs.slo.windows import Ewma

__all__ = [
    "BUNDLE_SCHEMA",
    "Breach",
    "Ewma",
    "FlightRecorder",
    "Hysteresis",
    "MaxObjective",
    "Objective",
    "PercentileObjective",
    "RatioObjective",
    "SLOEngine",
    "SLO_SCHEMA",
    "WindowVerdict",
    "ZeroObjective",
    "availability_objectives",
    "bench_objectives",
    "default_objectives",
    "faults_objectives",
    "memory_objectives",
    "overload_objectives",
    "replication_objectives",
    "shard_objectives",
]
