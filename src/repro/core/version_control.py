"""The version control module — paper Figure 1, executable.

This is the paper's central artifact: a module that owns *all* version
visibility state, so that any conflict-based concurrency control protocol can
be combined with it unchanged.  It maintains:

* ``tnc`` — the transaction number counter.  Incremented when a read-write
  transaction registers (i.e. when its serialization order becomes known);
  the pre-increment value becomes the transaction's number ``tn(T)``.
* ``vtnc`` — the visible transaction number counter.  Advanced only when the
  *head* of the queue completes, so versions become visible strictly in
  serialization order.
* ``VCQueue`` — the ordered list of registered transactions that are still
  active, or that completed while an older (smaller ``tn``) transaction is
  still active.

The two counters obey the paper's stated properties at all times:

* **Transaction Ordering Property** — every transaction registered from now
  on receives ``tn >= tnc``.
* **Transaction Visibility Property** — ``vtnc`` is the largest number such
  that every transaction with ``tn <= vtnc`` has completed.
* ``vtnc < tnc`` always.

The module re-verifies these invariants after every entry-procedure call —
three comparisons, see :meth:`VersionControl._check` — and raises
:class:`~repro.errors.InvariantViolation` on any breach.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.core.transaction import Transaction
from repro.errors import InvariantViolation, ProtocolError


class _QueueEntry:
    """One ``VCQueue`` entry — the paper's ``E(T)`` record."""

    __slots__ = ("txn_id", "num", "completed")

    def __init__(self, txn_id: int, num: int):
        self.txn_id = txn_id
        self.num = num
        self.completed = False  # the paper's E(T).type: "active" vs "complete"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "complete" if self.completed else "active"
        return f"E(T{self.txn_id}, tn={self.num}, {status})"


class VersionControl:
    """Centralized version control (paper Figure 1).

    The four public methods are the paper's four entry procedures.  The module
    is deliberately ignorant of objects, versions and conflicts — those belong
    to the storage and concurrency-control components.  Its only job is
    assigning serialization numbers and advancing visibility in serialization
    order.

    Args:
        first_tn: transaction number handed to the first registrant.  ``vtnc``
            starts at ``first_tn - 1`` so that ``vtnc < tnc`` holds initially.
    """

    def __init__(self, first_tn: int = 1):
        if first_tn < 1:
            raise ValueError("first_tn must be >= 1")
        self._tnc = first_tn
        self._vtnc = first_tn - 1
        # VCQueue, ordered by tn.  Registration order equals tn order because
        # tns come from the monotone counter, so an OrderedDict keyed by
        # txn_id preserves tn order while giving O(1) discard.
        self._queue: OrderedDict[int, _QueueEntry] = OrderedDict()
        self._observers: list[Callable[[str, int], None]] = []

    # -- counters -------------------------------------------------------------

    @property
    def tnc(self) -> int:
        """Current transaction number counter (next number to assign)."""
        return self._tnc

    @property
    def vtnc(self) -> int:
        """Current visible transaction number counter."""
        return self._vtnc

    @property
    def lag(self) -> int:
        """Visibility lag ``tnc - vtnc - 1``: assigned-but-invisible numbers.

        Zero when every assigned transaction's updates are visible.  This is
        the quantity behind the paper's Section 6 "delayed visibility"
        discussion, measured by experiment EXP-D.
        """
        return self._tnc - self._vtnc - 1

    # -- observers -------------------------------------------------------------

    def subscribe(self, observer: Callable[[str, int], None]) -> None:
        """Register ``observer(event, number)`` for counter movements.

        Events: ``"register"`` (a tn was assigned), ``"advance"`` (vtnc moved
        to ``number``), ``"discard"`` (an entry left the queue by abort).
        Metrics collectors and the distributed layer use this hook; the
        protocols themselves never do.
        """
        self._observers.append(observer)

    def unsubscribe(self, observer: Callable[[str, int], None]) -> None:
        """Remove a previously subscribed observer.

        Run teardown must detach exporters from long-lived modules, or a
        finished run's collector keeps firing forever.  Raises ValueError if
        the observer was never subscribed (or already removed) — silent
        double-detach usually hides a lifecycle bug.
        """
        for index, existing in enumerate(self._observers):
            if existing is observer:
                del self._observers[index]
                return
        raise ValueError(f"observer {observer!r} is not subscribed")

    def _notify(self, event: str, number: int) -> None:
        for observer in self._observers:
            observer(event, number)

    # -- the four entry procedures (paper Figure 1) ----------------------------

    def vc_start(self) -> int:
        """``VCstart()`` — return the start number for a read-only transaction.

        The returned value is the current ``vtnc``: every version with a
        creator ``tn <= vtnc`` is committed and visible, and no active or
        future transaction can create a version with a smaller number.
        """
        return self._vtnc

    def vc_register(self, txn: Transaction, status: str = "active") -> int:
        """``VCregister(T, status)`` — assign ``tn(T)`` and enqueue T.

        Called by the concurrency-control component at the moment T's
        serialization order is determined: at ``begin`` under timestamp
        ordering, at the lock point under two-phase locking, at successful
        validation under optimistic concurrency control.

        Returns the assigned transaction number.
        """
        if txn.txn_id in self._queue:
            raise ProtocolError(f"transaction {txn.txn_id} registered twice")
        if status != "active":
            raise ProtocolError(f"unsupported registration status {status!r}")
        tn = self._tnc
        self._tnc += 1
        txn.tn = tn
        entry = _QueueEntry(txn.txn_id, tn)
        self._queue[txn.txn_id] = entry
        self._notify("register", tn)
        self._check()
        return tn

    def vc_discard(self, txn: Transaction) -> None:
        """``VCdiscard(T)`` — remove an aborted transaction from the queue.

        Visibility must be delayed only for active, unaborted transactions,
        so an aborted registrant's entry is dropped and — if it was blocking
        the head of the queue — younger completed transactions become visible
        immediately.
        """
        entry = self._queue.get(txn.txn_id)
        if entry is None:
            raise ProtocolError(
                f"transaction {txn.txn_id} is not registered; nothing to discard"
            )
        del self._queue[txn.txn_id]
        self._notify("discard", entry.num)
        self._drain()
        self._check()

    def vc_complete(self, txn: Transaction) -> None:
        """``VCcomplete(T)`` — mark T complete and advance visibility.

        Implements the paper's loop: while the queue head is complete, set
        ``vtnc`` to the head's number and delete it.  If an older transaction
        is still active, T's entry stays queued ("delayed visibility") until
        that transaction completes or discards.
        """
        entry = self._queue.get(txn.txn_id)
        if entry is None:
            raise ProtocolError(
                f"transaction {txn.txn_id} is not registered; cannot complete"
            )
        if entry.completed:
            raise ProtocolError(f"transaction {txn.txn_id} completed twice")
        entry.completed = True
        self._drain()
        self._check()

    # -- internals --------------------------------------------------------------

    def _drain(self) -> None:
        """Advance ``vtnc`` over the completed prefix of the queue.

        Aborted-and-discarded numbers leave holes in the tn sequence; the
        visibility property quantifies only over transactions that exist
        (an aborted transaction's versions were destroyed before discarding),
        so ``vtnc`` steps across discarded numbers as it reaches them.

        Numbers are dense and the queue is tn-ordered, so every number below
        the oldest unfinished entry — below ``tnc`` when none is left — was
        completed or discarded: ``vtnc`` steps up to it one number at a
        time, and observers see one ``"advance"`` per number.
        """
        queue = self._queue
        while queue and next(iter(queue.values())).completed:
            queue.popitem(last=False)
        oldest_unfinished = next(iter(queue.values())).num if queue else self._tnc
        while self._vtnc < oldest_unfinished - 1:
            self._vtnc += 1
            self._notify("advance", self._vtnc)

    # -- introspection ------------------------------------------------------------

    def queue_snapshot(self) -> list[tuple[int, int, bool]]:
        """Current VCQueue as ``(txn_id, tn, completed)`` triples, in tn order."""
        return [(e.txn_id, e.num, e.completed) for e in self._queue.values()]

    def is_registered(self, txn: Transaction) -> bool:
        return txn.txn_id in self._queue

    def __len__(self) -> int:
        return len(self._queue)

    # -- invariant checking ---------------------------------------------------------

    def _check(self) -> None:
        head = next(iter(self._queue.values()), None)
        oldest_unfinished = self._tnc if head is None else head.num
        if not self._vtnc < self._tnc:
            raise InvariantViolation(
                f"counter invariant violated: vtnc={self._vtnc} >= tnc={self._tnc}"
            )
        # Visibility property: all tn <= vtnc completed or discarded.  The
        # queue is tn-ordered, so checking its head suffices.
        if oldest_unfinished <= self._vtnc:
            raise InvariantViolation(
                f"visibility property violated: {head!r} has tn <= vtnc={self._vtnc}"
            )
        # Maximality of vtnc: the next number above vtnc must be unassigned,
        # or assigned to a transaction that is still active at the queue head.
        if self._vtnc != oldest_unfinished - 1 or (head is not None and head.completed):
            raise InvariantViolation(
                f"visibility not maximal: tn={self._vtnc + 1} finished "
                f"but vtnc={self._vtnc}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VersionControl tnc={self._tnc} vtnc={self._vtnc} "
            f"queue={list(self._queue.values())!r}>"
        )
