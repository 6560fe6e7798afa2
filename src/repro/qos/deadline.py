"""Transaction deadlines: helpers over ``txn.meta["qos.deadline"]``.

A deadline is an *absolute virtual-time* instant carried on the
transaction descriptor.  Components that can block consult it:

* the lock table fails overdue queued requests
  (:meth:`~repro.cc.lock_manager.LockTable.expire_due`), under the flat
  and the granular manager alike;
* a wait list can drop overdue parked closures
  (:meth:`~repro.cc.waitlist.WaitList.expire_due`), though no scheduler
  parks with a deadline today and nothing sweeps them;
* the distributed layer checks it at operation entry and arms a
  virtual-time timer so a stalled 2PC aborts pre-decision instead of
  waiting out an infinite prepare.

Keeping the helpers here (rather than methods on ``Transaction``) keeps
the core descriptor QoS-agnostic: protocols that never set a deadline pay
a single dict miss.
"""

from __future__ import annotations

from repro.core.transaction import Transaction
from repro.errors import DeadlineExceeded

#: ``txn.meta`` key holding the absolute virtual-time deadline.
DEADLINE_KEY = "qos.deadline"
#: ``txn.meta`` key holding the snapshot staleness reported at begin.
STALENESS_KEY = "qos.staleness"


def set_deadline(txn: Transaction, deadline: float | None) -> None:
    """Attach an absolute virtual-time deadline to ``txn`` (None clears)."""
    if deadline is None:
        txn.meta.pop(DEADLINE_KEY, None)
    else:
        txn.meta[DEADLINE_KEY] = float(deadline)


def get_deadline(txn: Transaction) -> float | None:
    return txn.meta.get(DEADLINE_KEY)


def remaining(txn: Transaction, now: float) -> float | None:
    """Time left before the deadline; None when no deadline is set."""
    deadline = txn.meta.get(DEADLINE_KEY)
    if deadline is None:
        return None
    return deadline - now


def check_deadline(txn: Transaction, now: float) -> None:
    """Raise :class:`DeadlineExceeded` when ``txn``'s deadline has passed.

    The passive check used at operation entry points; blocking components
    additionally need the active ``expire_due`` sweeps to catch deadlines
    that pass *while* waiting.
    """
    deadline = txn.meta.get(DEADLINE_KEY)
    if deadline is not None and now >= deadline:
        raise DeadlineExceeded(txn.txn_id, deadline, now)
