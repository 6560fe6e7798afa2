"""Deterministic fault injection for the distributed reproduction.

The fault layer composes with the rest of the stack instead of replacing
it: a :class:`FaultyCourier` wraps the network seam every distributed
module already goes through, a :class:`FaultSchedule` makes every fault
draw a pure function of the master seed, and a
:class:`FaultInvariantChecker` continuously asserts the paper's invariants
while :func:`run_drill` campaigns shake the protocols with drops,
duplicates, delay spikes, partitions, and site crash-restarts.

See ``docs/faults.md`` for the fault taxonomy and the seed-replay workflow.
"""

from repro.faults.courier import FaultyCourier, RetryPolicy
from repro.faults.drill import DrillReport, run_drill
from repro.faults.invariants import ClusterInvariantChecker, FaultInvariantChecker
from repro.faults.schedule import (
    DEFAULT_SPEC,
    FaultCounts,
    FaultDecision,
    FaultSchedule,
    FaultSpec,
    PartitionWindow,
)

__all__ = [
    "DEFAULT_SPEC",
    "DrillReport",
    "FaultCounts",
    "FaultDecision",
    "ClusterInvariantChecker",
    "FaultInvariantChecker",
    "FaultSchedule",
    "FaultSpec",
    "FaultyCourier",
    "PartitionWindow",
    "RetryPolicy",
    "run_drill",
]
