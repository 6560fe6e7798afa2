"""Section 6 remedies for delayed visibility.

The version-control mechanism trades currency for independence: a read-only
transaction's snapshot is ``vtnc``, which lags ``tnc`` while older
transactions are still active.  The paper offers two remedies, both
implemented here:

1. **Temporal floor** — a read-only transaction R that must observe the
   effects of a specific committed transaction T is started with
   ``sn(R) >= tn(T)``; if ``vtnc`` has not caught up yet, R's begin waits
   (on version-control state only — still zero concurrency-control
   interaction).
2. **Pseudo read-write escalation** — applications that "are not willing to
   sacrifice currency" run the reader as a read-write transaction, paying
   the concurrency-control cost to see the latest state.
"""

from __future__ import annotations

from repro.core.futures import OpFuture
from repro.core.transaction import Transaction
from repro.core.vc_scheduler import VersionControlledScheduler
from repro.core.version_control import VersionControl


class VisibilityWaiter:
    """Parks futures until ``vtnc`` reaches requested thresholds.

    Subscribes to a :class:`VersionControl` module's counter movements; no
    concurrency-control state is consulted, preserving the paper's
    RO-independence property.
    """

    def __init__(self, version_control: VersionControl):
        self._vc = version_control
        self._waiters: list[tuple[int, OpFuture]] = []
        version_control.subscribe(self._on_event)

    def wait_for(self, threshold: int) -> OpFuture:
        """A future resolving with ``vtnc`` once ``vtnc >= threshold``."""
        future = OpFuture(label=("vtnc >= {}", threshold))
        if self._vc.vtnc >= threshold:
            future.resolve(self._vc.vtnc)
            return future
        self._waiters.append((threshold, future))
        return future

    def _on_event(self, event: str, number: int) -> None:
        if event != "advance" or not self._waiters:
            return
        vtnc = self._vc.vtnc
        ready = [(t, f) for t, f in self._waiters if vtnc >= t]
        if not ready:
            return
        self._waiters = [(t, f) for t, f in self._waiters if vtnc < t]
        for _, future in ready:
            future.resolve(vtnc)


class SnapshotManager:
    """User-facing helpers implementing the two Section 6 remedies."""

    def __init__(self, scheduler: VersionControlledScheduler):
        self._scheduler = scheduler
        self._waiter = VisibilityWaiter(scheduler.vc)

    def begin_read_only_after(self, floor_tn: int) -> OpFuture:
        """Remedy 1: begin a read-only transaction with ``sn >= floor_tn``.

        The returned future resolves with the :class:`Transaction` once
        visibility has caught up with ``floor_tn``; it resolves immediately
        when ``vtnc`` is already there.  The typical pattern — "a read-only
        transaction executed immediately after a read-write transaction T
        may not see the results of T" — passes ``tn(T)`` of the just
        committed transaction.
        """
        result = OpFuture(label=("begin RO with sn >= {}", floor_tn))
        visibility = self._waiter.wait_for(floor_tn)

        def _start(done: OpFuture) -> None:
            if done.failed:
                result.fail(done.error)  # pragma: no cover - waiter never fails
                return
            txn = self._scheduler.begin(read_only=True)
            assert txn.sn is not None and txn.sn >= floor_tn
            result.resolve(txn)

        visibility.add_callback(_start)
        return result

    def begin_current_reader(self) -> Transaction:
        """Remedy 2: a pseudo read-write transaction for currency-critical reads.

        Returns a read-write transaction the caller uses only for reads; it
        pays full concurrency-control overhead (locks/timestamps) and in
        exchange observes the most recent database state.
        """
        return self._scheduler.begin(read_only=False)
