"""Transaction descriptors.

The paper's model (Section 3) classifies every transaction as *read-only* or
*read-write* before execution; an unknown class defaults to read-write
(Section 4.1).  A descriptor carries the numbers the version-control scheme
assigns — the transaction number ``tn`` for read-write transactions and the
start number ``sn`` for read-only ones — plus bookkeeping the protocols and
the metrics layer need (read/write sets, state, abort reason).

Per-transaction *protocol* state is named fields, never string keys: what
every topology shares (``deadline``, ``admitted``, ``span``) is a slot here;
what one protocol needs is a ``__slots__`` record that protocol defines
beside its only writer and hangs on ``private``.  This module knows no
topology.  The DESIGN.md table "Per-transaction state" lists every owner.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any

from repro.errors import AbortReason, ProtocolError

#: Sentinel start number for read-write transactions under two-phase locking:
#: the paper sets ``sn(T) = infinity`` "for uniformity", meaning such a
#: transaction always reads the latest version.
SN_INFINITY = float("inf")


class TxnClass(enum.Enum):
    """Transaction classification (paper Section 4.1)."""

    READ_ONLY = "read_only"
    READ_WRITE = "read_write"

    @classmethod
    def default(cls) -> "TxnClass":
        """Class used when the client cannot declare one a priori."""
        return cls.READ_WRITE


class TxnState(enum.Enum):
    """Transaction lifecycle."""

    ACTIVE = "active"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """Mutable descriptor of one executing transaction.

    Instances are created by a scheduler's ``begin`` and owned by it; client
    code holds them as opaque handles.

    Attributes:
        txn_id: unique identity, independent of serialization order.
        txn_class: read-only or read-write; fixed at construction, and with
            it ``is_read_only`` / ``is_read_write`` (plain slots, read on
            every operation).
        tn: transaction number (serialization order) once assigned, else None.
        sn: start number governing which versions are visible to reads.
        state: lifecycle state.
        abort_reason: populated when state is ABORTED.
        read_set: keys read, with the version number that satisfied each read.
        write_set: keys written, with the (uncommitted) value.
        deadline: absolute virtual-time deadline, or None; stamped here and
            nowhere else, read by whatever can block (lock requests, the
            distributed decision timer).
        admitted: True while the transaction holds an admission token.
        span: root of the transaction's span tree while it runs traced.
        private: the record of the scheduler that began the transaction —
            its only writer; ``_finish`` has it ``release()`` its futures,
            closures and scheduler handles (``TransactionBookkeeping``).
        meta: client-facing annotations about the snapshot handed out
            (``qos.staleness``, ``shard.staleness``, ``replica.id``,
            ``replica.stale``, ``replica.lag``), written at begin and read
            by clients only — no protocol decision looks in here.
    """

    _ids = itertools.count(1)

    __slots__ = (
        "txn_id",
        "txn_class",
        "is_read_only",
        "is_read_write",
        "tn",
        "sn",
        "state",
        "abort_reason",
        "abort_caused_by_readonly",
        "read_set",
        "write_set",
        "begin_time",
        "finish_time",
        "deadline",
        "admitted",
        "span",
        "private",
        "meta",
    )

    def __init__(
        self,
        txn_class: TxnClass = TxnClass.READ_WRITE,
        txn_id: int | None = None,
        deadline: float | None = None,
    ):
        self.txn_id = txn_id if txn_id is not None else next(Transaction._ids)
        self.txn_class = txn_class
        self.is_read_only = txn_class is TxnClass.READ_ONLY
        self.is_read_write = txn_class is TxnClass.READ_WRITE
        self.tn: int | None = None
        self.sn: float | None = None
        self.state = TxnState.ACTIVE
        self.abort_reason: AbortReason | None = None
        self.abort_caused_by_readonly = False
        self.read_set: dict[Any, int] = {}
        self.write_set: dict[Any, Any] = {}
        self.begin_time: float = 0.0
        self.finish_time: float | None = None
        self.deadline = None if deadline is None else float(deadline)
        self.admitted = False
        self.span: Any = None
        self.private: Any = None
        self.meta: dict[str, Any] = {}

    # -- state transitions ---------------------------------------------------

    @property
    def is_active(self) -> bool:
        state = self.state
        return state is TxnState.ACTIVE or state is TxnState.COMMITTING

    @property
    def is_finished(self) -> bool:
        return self.state in (TxnState.COMMITTED, TxnState.ABORTED)

    def require_active(self) -> None:
        """Guard used by schedulers at every operation entry point."""
        state = self.state
        if state is not TxnState.ACTIVE and state is not TxnState.COMMITTING:
            raise ProtocolError(
                f"transaction {self.txn_id} is {self.state.value}; no further operations allowed"
            )

    def mark_committed(self) -> None:
        self.require_active()
        self.state = TxnState.COMMITTED

    def mark_aborted(
        self, reason: AbortReason, caused_by_readonly: bool = False
    ) -> None:
        if self.state is TxnState.ABORTED:
            return
        if self.state is TxnState.COMMITTED:
            raise ProtocolError(f"transaction {self.txn_id} already committed; cannot abort")
        self.state = TxnState.ABORTED
        self.abort_reason = reason
        self.abort_caused_by_readonly = caused_by_readonly

    # -- read/write set helpers ---------------------------------------------

    def record_read(self, key: Any, version_tn: int) -> None:
        self.read_set[key] = version_tn

    def record_write(self, key: Any, value: Any) -> None:
        if self.is_read_only:
            raise ProtocolError(
                f"transaction {self.txn_id} is read-only; write({key!r}) is not allowed"
            )
        self.write_set[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "RO" if self.is_read_only else "RW"
        tn = f" tn={self.tn}" if self.tn is not None else ""
        sn = f" sn={self.sn}" if self.sn is not None else ""
        return f"<T{self.txn_id} {kind} {self.state.value}{tn}{sn}>"
