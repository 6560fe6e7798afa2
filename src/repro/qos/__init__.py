"""repro.qos — overload protection and graceful degradation.

The paper guarantees that read-only transactions, snapshotted at ``vtnc``
by ``VCstart()``, never block, never get blocked, and never abort.  This
package extends that asymmetry into an operational quality-of-service
story: under overload or partition, *read-write* work is shed, deadlined,
or fast-failed in controlled, typed, observable ways, while the read-only
fast path keeps serving snapshots with a reported staleness bound.

Pieces (each usable standalone; see ``docs/robustness.md``):

* :class:`AdmissionController` — token-based admission that sheds what
  it cannot admit;
* :class:`BackoffPolicy` and :class:`~repro.qos.retry.Retry` — classified
  retries with deterministic seeded jitter, one rule for every retry loop;
* deadlines: ``begin(deadline=...)`` stamps ``txn.deadline``; the lock
  manager enforces it (no helper here);
* :mod:`repro.qos.overload` — the seeded overload drill behind
  ``python -m repro drill --campaign overload``;
* :mod:`repro.qos.memory` — the watermark-driven lease-revocation loop over
  bounded GC and its seeded drill, ``python -m repro drill --campaign
  memory`` (see ``docs/gc.md``).

All decisions emit ``qos.*`` trace events through :mod:`repro.obs`.
"""

from repro.qos.admission import AdmissionController
from repro.qos.retry import BackoffPolicy

__all__ = [
    "AdmissionController",
    "BackoffPolicy",
]
