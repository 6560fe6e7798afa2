"""Generic per-key wait lists for timestamp-style protocols.

Timestamp protocols block operations behind *pending writes* rather than
locks.  A blocked operation is represented by a retry closure: calling it
re-attempts the operation against current state and reports whether it
completed (resolved or failed its future) or must keep waiting.  The owner
wakes a key's waiters whenever that key's pending set changes.

:meth:`WaitList.attempt` is the whole blocking-operation skeleton the
timestamp schedulers share — try now, else count the block and park —
around a protocol-specific step.

Waiters wake in FIFO order per key.  A parked waiter is not expired by its
transaction's deadline: deadlines are enforced where transactions queue for
locks and by the distributed decision timer (``docs/robustness.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.futures import OpFuture
from repro.core.transaction import Transaction
from repro.errors import AbortReason, TransactionAborted

if TYPE_CHECKING:
    from repro.core.interface import SchedulerCounters

#: A retry closure: True when the operation completed (either way).
Attempt = Callable[[], bool]


class _Waiter:
    __slots__ = ("txn", "attempt")

    def __init__(self, txn: Transaction, attempt: Attempt):
        self.txn = txn
        self.attempt = attempt


class WaitList:
    """Parked operations keyed by the object they wait on."""

    def __init__(self) -> None:
        self._parked: dict[Hashable, list[_Waiter]] = {}

    def park(self, key: Hashable, txn: Transaction, attempt: Attempt) -> None:
        self._parked.setdefault(key, []).append(_Waiter(txn, attempt))

    def attempt(
        self,
        txn: Transaction,
        key: Hashable,
        result: OpFuture,
        step: Attempt,
        counters: SchedulerCounters,
        cause: str,
    ) -> None:
        """Run a blocking operation: try ``step`` now and, while it reports
        it must keep waiting, count one block (``cause``) and park it on
        ``key`` to be retried at every :meth:`wake`.

        ``step`` is the protocol-specific body; it settles ``result`` and
        returns True, or returns False to wait.  A retry that finds the
        transaction no longer active fails ``result`` with its abort reason
        instead of running ``step``.
        """

        def attempt() -> bool:
            if not txn.is_active:
                result.fail(
                    TransactionAborted(txn.txn_id, txn.abort_reason or AbortReason.USER_REQUESTED)
                )
                return True
            return step()

        if not attempt():
            counters.note_block(txn, cause)
            self.park(key, txn, attempt)

    def wake(self, keys) -> None:
        """Re-drive every operation parked on ``keys``; re-park the rest.

        Waiters are retried strictly in park (FIFO) order.
        """
        for key in list(keys):
            parked = self._parked.pop(key, None)
            if not parked:
                continue
            still_blocked = [w for w in parked if not w.attempt()]
            if still_blocked:
                self._parked.setdefault(key, []).extend(still_blocked)

    def drop_transaction(self, txn: Transaction) -> None:
        """Remove all parked operations of ``txn`` (it aborted)."""
        for key in list(self._parked):
            remaining = [w for w in self._parked[key] if w.txn is not txn]
            if remaining:
                self._parked[key] = remaining
            else:
                del self._parked[key]

    def waiting_on(self, key: Hashable) -> int:
        return len(self._parked.get(key, ()))

    def is_empty(self) -> bool:
        return not self._parked
