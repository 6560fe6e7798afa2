"""repro.qos — overload protection and graceful degradation.

The paper guarantees that read-only transactions, snapshotted at ``vtnc``
by ``VCstart()``, never block, never get blocked, and never abort.  This
package extends that asymmetry into an operational quality-of-service
story: under overload or partition, *read-write* work is shed, deadlined,
or fast-failed in controlled, typed, observable ways, while the read-only
fast path keeps serving snapshots with a reported staleness bound.

Pieces (each usable standalone; see ``docs/robustness.md``):

* :class:`AdmissionController` — token-based admission with bounded wait
  queues and fifo / lifo-shed / priority shedding;
* :class:`CircuitBreaker` / :class:`BreakerBoard` — per-site breakers for
  the distributed courier path;
* :class:`BackoffPolicy` / :class:`RetryBudget` — classified retries with
  deterministic seeded jitter and storm-proof budgets;
* deadlines: ``begin(deadline=...)`` stamps ``txn.deadline``; the lock
  manager and the distributed decision timer enforce it (no helper here);
* :func:`run_overload_campaign` — the seeded overload drill behind
  ``python -m repro drill --campaign overload``;
* :class:`MemoryPressureController` / :func:`run_memory_campaign` — the
  watermark-driven lease-revocation loop over bounded GC and its seeded
  drill, ``python -m repro drill --campaign memory`` (see ``docs/gc.md``).

All decisions emit ``qos.*`` trace events through :mod:`repro.obs`.
"""

from repro.qos.admission import POLICIES, AdmissionController
from repro.qos.breaker import BreakerBoard, CircuitBreaker
from repro.qos.retry import BackoffPolicy, RetryBudget

__all__ = [
    "AdmissionController",
    "BackoffPolicy",
    "BreakerBoard",
    "CircuitBreaker",
    "MemoryPressureController",
    "POLICIES",
    "RetryBudget",
    "run_memory_campaign",
    "run_overload_campaign",
]


def __getattr__(name):
    # Lazy: overload.py / memory.py import bench/drill machinery; keep
    # plain `import repro.qos` light for the scheduler hot path.
    if name == "run_overload_campaign":
        from repro.qos.overload import run_overload_campaign

        return run_overload_campaign
    if name == "run_memory_campaign":
        from repro.qos.memory import run_memory_campaign

        return run_memory_campaign
    if name == "MemoryPressureController":
        from repro.qos.memory import MemoryPressureController

        return MemoryPressureController
    raise AttributeError(name)
