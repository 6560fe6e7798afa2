"""Write-ahead logging and crash recovery for the multiversion store.

The paper's opening sentence — "Multiple versions of data are used in
database systems to support transaction and system recovery" — presumes a
recovery substrate.  This module supplies it for the version-controlled
schedulers:

* a :class:`WriteAheadLog` of typed records with an explicit *durable
  boundary*: records past the last ``force()`` are lost on crash;
* the logging discipline for the commit path: a transaction's writes and its
  ``COMMIT(tn)`` record are forced **before** versions are installed, so a
  committed transaction is always reconstructible and an uncommitted one
  never resurfaces;
* :func:`recover` — rebuild the store, the version-control counters, and
  the visibility frontier from the durable log alone.

Multiversioning makes recovery pleasantly simple: there is nothing to undo
(uncommitted writes are private; pending versions are recreated only by a
logged commit) and redo is just re-installing each committed transaction's
versions under its transaction number, in number order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.core.version_control import VersionControl
from repro.errors import CorruptLogError
from repro.obs.tracer import NULL_TRACER
from repro.storage.mvstore import MVStore


class RecordKind(enum.Enum):
    WRITE = "write"          # (txn_id, key, value)
    COMMIT = "commit"        # (txn_id, tn)
    ABORT = "abort"          # (txn_id,)
    CHECKPOINT = "ckpt"      # value = {"versions": [(key, tn, value)...], "next_tn": int}


@dataclass(frozen=True)
class LogRecord:
    kind: RecordKind
    txn_id: int
    key: Hashable | None = None
    value: Any = None
    tn: int | None = None


class WriteAheadLog:
    """Append-only log with an explicit durable boundary.

    ``append`` adds a volatile record; ``force`` makes everything so far
    durable; ``crash`` discards the volatile suffix.  Real systems flush to
    stable storage — the boundary models exactly that, letting tests inject
    crashes at any point of the commit protocol.
    """

    def __init__(self) -> None:
        self._records: list[LogRecord] = []
        self._durable = 0
        #: Indices of records that reached stable storage only partially
        #: (an interrupted ``force()``).  A torn *tail* record is treated by
        #: :func:`recover` as the durable boundary; a torn record with valid
        #: records after it is stable-media damage (:class:`CorruptLogError`).
        self._torn: set[int] = set()
        #: Number of force (flush) operations — a cost proxy.
        self.forces = 0
        #: Structured-event tracer (wal.append / wal.force / wal.crash);
        #: NULL_TRACER unless attach_tracer() wired one.
        self.tracer = NULL_TRACER

    def append(self, record: LogRecord) -> None:
        self._records.append(record)
        if self.tracer.enabled:
            self.tracer.emit(
                "wal.append", kind=record.kind.value, txn=record.txn_id, tn=record.tn
            )

    def force(self) -> None:
        volatile = len(self._records) - self._durable
        self._durable = len(self._records)
        self.forces += 1
        if self.tracer.enabled:
            self.tracer.emit("wal.force", made_durable=volatile, durable=self._durable)

    def partial_force(self, records: int, tear_last: bool = True) -> int:
        """A ``force()`` interrupted by a crash mid-flush.

        Only the first ``records`` volatile records reach stable storage,
        and (when ``tear_last``) the last of them lands torn — partially
        written, unreadable past its header.  Returns how many records
        became durable.  Fault drills call this, then :meth:`crash`, to
        model power loss during the flush; :func:`recover` must treat the
        torn tail as the durable boundary.
        """
        made = min(max(records, 0), len(self._records) - self._durable)
        self._durable += made
        self.forces += 1
        if tear_last and made > 0:
            self._torn.add(self._durable - 1)
        if self.tracer.enabled:
            self.tracer.emit(
                "wal.force", made_durable=made, durable=self._durable, torn=tear_last
            )
        return made

    def torn_indices(self) -> set[int]:
        """Indices (into the record list) of partially-written records."""
        return set(self._torn)

    def crash(self) -> int:
        """Drop volatile records; returns how many were lost."""
        lost = len(self._records) - self._durable
        del self._records[self._durable :]
        if self.tracer.enabled:
            self.tracer.emit("wal.crash", lost=lost, durable=self._durable)
        return lost

    def truncate_before_checkpoint(self) -> int:
        """Drop durable records preceding the last durable CHECKPOINT.

        Returns the number of records dropped.  Safe because the checkpoint
        record carries everything recovery needs up to its position.
        """
        last_ckpt = None
        for index in range(self._durable - 1, -1, -1):
            if self._records[index].kind is RecordKind.CHECKPOINT:
                last_ckpt = index
                break
        if last_ckpt is None or last_ckpt == 0:
            return 0
        del self._records[:last_ckpt]
        self._durable -= last_ckpt
        self._torn = {i - last_ckpt for i in self._torn if i >= last_ckpt}
        return last_ckpt

    def durable_records(self) -> list[LogRecord]:
        return list(self._records[: self._durable])

    def durable_length(self) -> int:
        """Offset of the durable boundary (number of durable records)."""
        return self._durable

    def durable_suffix(self, offset: int) -> list[LogRecord]:
        """Durable records from ``offset`` on — the log-shipping unit.

        A replica that has applied (or acknowledged) a prefix of length
        ``offset`` catches up by applying exactly this suffix; shipping it
        again is harmless because application is idempotent
        (:func:`install_committed`).
        """
        if offset < 0:
            raise ValueError(f"negative log offset {offset}")
        return list(self._records[offset : self._durable])

    def all_records(self) -> list[LogRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)


def _record_fault(index: int, record: object) -> str | None:
    """Why ``record`` is malformed, or None when it is well-formed."""
    if not isinstance(record, LogRecord):
        return f"not a LogRecord: {record!r}"
    if not isinstance(record.kind, RecordKind):
        return f"unknown record kind {record.kind!r}"
    if record.kind is RecordKind.WRITE and record.key is None:
        return "WRITE record without a key"
    if record.kind is RecordKind.COMMIT and not isinstance(record.tn, int):
        return f"COMMIT record without a transaction number (tn={record.tn!r})"
    if record.kind is RecordKind.CHECKPOINT:
        value = record.value
        if (
            not isinstance(value, dict)
            or "versions" not in value
            or "next_tn" not in value
        ):
            return "CHECKPOINT record missing versions/next_tn"
    return None


def validate_durable(log: WriteAheadLog) -> list[LogRecord]:
    """The readable durable prefix of ``log``, corruption-checked.

    A torn or malformed *tail* record is the expected trace of a crash
    during ``force()``: everything before it flushed, it did not.  Recovery
    treats it as the durable boundary and drops it.  A torn or malformed
    record with valid records *after* it cannot be explained by any crash —
    the medium is damaged — so it raises :class:`CorruptLogError` rather
    than silently skipping records (which could drop committed writes).
    """
    records = log.durable_records()
    torn = log.torn_indices()
    boundary = len(records)
    for index in range(len(records) - 1, -1, -1):
        fault = "torn record" if index in torn else _record_fault(index, records[index])
        if fault is None:
            continue
        if index == boundary - 1:
            boundary = index  # torn/garbage tail: durable boundary moves back
            continue
        raise CorruptLogError(index, fault)
    return records[:boundary]


def install_committed(
    store: MVStore, tn: int, items: Iterable[tuple[Hashable, Any]]
) -> None:
    """Idempotently install one committed transaction's writes under ``tn``.

    The single apply primitive shared by crash recovery and replica
    catch-up: re-applying the same durable prefix any number of times
    (a duplicated shipment, a restarted replay) converges to the same
    version chains, because an already-present version is overwritten in
    place instead of raising on the duplicate ``tn``.  Callers pass items
    in log order, so the last write per key wins — same as first apply.
    """
    for key, value in items:
        obj = store.object(key)
        existing = obj.find(tn)
        if existing is None:
            store.install(key, tn, value)
        else:
            existing.value = value


def replay_committed(store: MVStore, records: Iterable[LogRecord]) -> list[int]:
    """Redo ``records`` into ``store``; returns the committed tns, ascending.

    The one place WRITE/COMMIT/ABORT records are parsed into committed
    write sets, shared by every recovery path (the centralized
    :func:`recover`, a distributed site's restart).  A transaction's
    writes are installed — idempotently, via :func:`install_committed` —
    only if its COMMIT record is among ``records``; uncommitted and
    aborted transactions are skipped, CHECKPOINT records ignored.
    Transactions replay in transaction-number order.
    """
    writes: dict[int, list[tuple[Hashable, Any]]] = {}
    committed: dict[int, int] = {}  # txn_id -> tn
    aborted: set[int] = set()
    for record in records:
        if record.kind is RecordKind.WRITE:
            writes.setdefault(record.txn_id, []).append((record.key, record.value))
        elif record.kind is RecordKind.COMMIT:
            assert record.tn is not None
            committed[record.txn_id] = record.tn
        elif record.kind is RecordKind.ABORT:
            aborted.add(record.txn_id)
    tns: list[int] = []
    for txn_id, tn in sorted(committed.items(), key=lambda item: item[1]):
        if txn_id in aborted:  # pragma: no cover - protocol never does both
            continue
        install_committed(store, tn, writes.get(txn_id, ()))
        tns.append(tn)
    return tns


def recover(log: WriteAheadLog) -> tuple[MVStore, VersionControl]:
    """Rebuild store and version control from the durable log.

    Recovery starts from the last durable CHECKPOINT (if any) — which
    carries the retained version set and the numbering frontier — and
    replays committed transactions' writes after it, in transaction-number
    order.  Uncommitted writes (no durable COMMIT) and aborted transactions
    are skipped — their versions never existed durably.  The rebuilt
    ``VersionControl`` resumes numbering above the highest committed
    number, with full visibility (every surviving transaction is complete).

    A torn tail record (interrupted ``force()``) marks the durable
    boundary; a malformed record before the tail raises
    :class:`~repro.errors.CorruptLogError`.
    """
    records = validate_durable(log)
    start = 0
    base_versions: list[tuple[Hashable, int, Any]] = []
    base_next_tn = 1
    for index in range(len(records) - 1, -1, -1):
        if records[index].kind is RecordKind.CHECKPOINT:
            base_versions = records[index].value["versions"]
            base_next_tn = records[index].value["next_tn"]
            start = index + 1
            break

    store = MVStore()
    for key, tn, value in base_versions:
        if tn == 0:
            store.object(key)  # initial version exists implicitly
        else:
            store.install(key, tn, value)
    replayed = replay_committed(store, records[start:])
    max_tn = max(base_next_tn - 1, replayed[-1] if replayed else 0)
    return store, VersionControl(first_tn=max_tn + 1)


def redo_summary(records: Iterable[LogRecord]) -> dict[str, int]:
    """Counts by record kind — used by tests and the recovery example."""
    summary: dict[str, int] = {}
    for record in records:
        summary[record.kind.value] = summary.get(record.kind.value, 0) + 1
    return summary
