"""Generic per-key wait lists for timestamp-style protocols.

Timestamp protocols block operations behind *pending writes* rather than
locks.  A blocked operation is represented by a retry closure: calling it
re-attempts the operation against current state and reports whether it
completed (resolved or failed its future) or must keep waiting.  The owner
wakes a key's waiters whenever that key's pending set changes.

:meth:`WaitList.attempt` is the whole blocking-operation skeleton the
timestamp schedulers share — try now, else count the block and park —
around a protocol-specific step.

Waiters wake in FIFO order per key, and a waiter may carry an absolute
virtual-time deadline: :meth:`WaitList.expire_due` removes every overdue
entry and hands it to the caller's ``on_expire`` callback (which typically
aborts the transaction with :class:`~repro.errors.DeadlineExceeded`), so a
deadline-aborted waiter never lingers in the queue to be woken spuriously.
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
    __slots__ = ("txn", "attempt", "deadline")

    def __init__(self, txn: Transaction, attempt: Attempt, deadline: float | None):
        self.txn = txn
        self.attempt = attempt
        self.deadline = deadline


class WaitList:
    """Parked operations keyed by the object they wait on."""

    def __init__(self) -> None:
        self._parked: dict[Hashable, list[_Waiter]] = {}

    def park(
        self,
        key: Hashable,
        txn: Transaction,
        attempt: Attempt,
        deadline: float | None = None,
    ) -> None:
        self._parked.setdefault(key, []).append(_Waiter(txn, attempt, deadline))

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

    def expire_due(
        self,
        now: float,
        on_expire: Callable[[Transaction, Hashable], None] | None = None,
    ) -> list[Transaction]:
        """Remove every waiter whose deadline has passed.

        The wait list only *parks* closures — it cannot fail an operation
        itself — so each overdue waiter is handed to ``on_expire(txn, key)``
        for the owning scheduler to abort.  All of the expired transaction's
        parked entries are dropped (a transaction may wait on one key only,
        but defensively we sweep them all).  Returns the expired
        transactions in park order.
        """
        expired: list[tuple[Transaction, Hashable]] = []
        seen: set[int] = set()
        for key in list(self._parked):
            for waiter in self._parked[key]:
                if waiter.deadline is not None and waiter.deadline <= now:
                    if waiter.txn.txn_id not in seen:
                        seen.add(waiter.txn.txn_id)
                        expired.append((waiter.txn, key))
        for key in list(self._parked):
            kept = [w for w in self._parked[key] if w.txn.txn_id not in seen]
            if kept:
                self._parked[key] = kept
            else:
                del self._parked[key]
        for txn, key in expired:
            if on_expire is not None:
                on_expire(txn, key)
        return [txn for txn, _ in expired]

    def waiting_on(self, key: Hashable) -> int:
        return len(self._parked.get(key, ()))

    def is_empty(self) -> bool:
        return not self._parked
