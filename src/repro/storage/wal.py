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
* :class:`Redo` — the one record applier, shared by crash recovery
  (:func:`recover`), a distributed site's restart and a replica's catch-up;
* :func:`recover` — rebuild the store, the version-control counters, and
  the visibility frontier from the durable log alone.

Multiversioning makes recovery pleasantly simple: there is nothing to undo
(uncommitted writes are private; pending versions are recreated only by a
logged commit) and redo is just re-installing each committed transaction's
versions under its transaction number.  Redo runs in log order: a COMMIT
installs the writes staged before it, and since every version carries its
own number the chains come out the same whatever order the commits were
logged in.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Hashable, Iterable, NamedTuple

from repro.core.version_control import VersionControl
from repro.errors import CorruptLogError, ProtocolError
from repro.obs.tracer import NULL_TRACER
from repro.storage.mvstore import MVStore


class RecordKind(enum.Enum):
    WRITE = "write"          # (txn_id, key, value)
    COMMIT = "commit"        # (txn_id, tn)
    ABORT = "abort"          # (txn_id,)
    CHECKPOINT = "ckpt"      # value: see checkpoint_record()


class LogRecord(NamedTuple):
    """One log record: immutable, compared and hashed by its fields.

    A tuple underneath, because one is built per logged write and per
    commit on every WAL path.
    """

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

    The durable frontier is observable: ``force`` / ``partial_force``
    notify :meth:`subscribe_force` subscribers *after* the boundary moves,
    so a :class:`~repro.replica.ship.LogShipper` subscribed here ships
    every commit the instant it becomes durable — the log itself stays
    unaware of replication, exactly like the tracer hook pattern.
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
        self._on_force: dict[int, Callable[[], None]] = {}
        self._next_token = 0

    def subscribe_force(self, fn: Callable[[], None]) -> int:
        """Subscribe ``fn`` to durable-boundary movement; returns a token.

        Tokens, not callback equality, identify subscriptions: two
        subscriptions of the same bound method (``==`` but not ``is``)
        stay independent, so unsubscribing one cannot deregister the
        other.
        """
        token = self._next_token
        self._next_token += 1
        self._on_force[token] = fn
        return token

    def unsubscribe_force(self, token: int) -> None:
        self._on_force.pop(token, None)

    def append(self, record: LogRecord) -> None:
        self._records.append(record)
        if self.tracer.enabled:
            self.tracer.emit("wal.append", record.kind.value, record.txn_id, record.tn)

    def force(self) -> None:
        volatile = len(self._records) - self._durable
        self._durable = len(self._records)
        self.forces += 1
        if self.tracer.enabled:
            self.tracer.emit("wal.force", volatile, self._durable)
        if self._on_force:
            for fn in list(self._on_force.values()):
                fn()

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
            self.tracer.emit("wal.force", made, self._durable, torn=tear_last)
        if self._on_force:
            for fn in list(self._on_force.values()):
                fn()
        return made

    def torn_indices(self) -> set[int]:
        """Indices (into the record list) of partially-written records."""
        return set(self._torn)

    def crash(self) -> int:
        """Drop volatile records; returns how many were lost."""
        lost = len(self._records) - self._durable
        del self._records[self._durable :]
        if self.tracer.enabled:
            self.tracer.emit("wal.crash", lost, self._durable)
        return lost

    def truncate_before_checkpoint(self) -> int:
        """Drop the durable records before :func:`recover`'s restart point.

        Returns the number of records dropped.  Safe because that
        checkpoint carries everything recovery needs up to its position; a
        version-less marker is never a cut (see :func:`_restart_point`).
        """
        start = _restart_point(validate_durable(self))
        if start == 0:
            return 0
        del self._records[:start]
        self._durable -= start
        self._torn = {i - start for i in self._torn if i >= start}
        return start

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


def checkpoint_record(
    next_tn: int,
    versions: Iterable[tuple[Hashable, int, Any]] = (),
    xlog: tuple[int, Iterable[int]] | None = None,
    txn_id: int = 0,
) -> LogRecord:
    """The one constructor of CHECKPOINT records.

    ``value = {"versions": [(key, tn, value)...], "next_tn": int}``: the
    retained versions and the numbering frontier (every number below
    ``next_tn`` is settled).  Without versions it is a *visibility
    marker*; ``xlog = (tn, participants)`` adds a shard's cross-shard
    visibility-log entry as ``value["xlog"] = [tn, [participant ids]]``.
    """
    value: dict[str, Any] = {"versions": list(versions), "next_tn": next_tn}
    if xlog is not None:
        tn, participants = xlog
        value["xlog"] = [tn, list(participants)]
    return LogRecord(RecordKind.CHECKPOINT, txn_id, value=value)


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
        try:
            store.install(key, tn, value)
        except ProtocolError:  # version ``tn`` is already there: a re-apply
            store.object(key).find(tn).value = value


class Redo:
    """Applies log records, in log order, to one store: the one redo of
    :func:`recover`, a distributed site's restart and a replica's catch-up.

    WRITE stages the write under its transaction; COMMIT installs the
    staged writes under its ``tn`` (:func:`install_committed`: a
    transaction logged twice, an in-doubt leg re-applied after a crash,
    converges); ABORT drops them; CHECKPOINT installs its versions and
    raises :attr:`floor`.
    """

    __slots__ = ("store", "floor", "_staged")

    def __init__(self, store: MVStore) -> None:
        self.store = store
        #: Highest number a CHECKPOINT settled (``next_tn - 1``), 0 if none.
        self.floor = 0
        #: Writes staged per txn_id between WRITE records and their COMMIT.
        self._staged: dict[int, list[tuple[Hashable, Any]]] = {}

    def apply(self, record: LogRecord) -> int | None:
        """Apply one record; returns the ``tn`` a COMMIT installed, else None."""
        kind = record.kind
        if kind is RecordKind.WRITE:
            self._staged.setdefault(record.txn_id, []).append((record.key, record.value))
        elif kind is RecordKind.COMMIT:
            install_committed(self.store, record.tn, self._staged.pop(record.txn_id, ()))
            return record.tn
        elif kind is RecordKind.ABORT:
            self._staged.pop(record.txn_id, None)
        elif kind is RecordKind.CHECKPOINT:
            for key, tn, value in record.value["versions"]:
                if tn == 0:
                    self.store.object(key)  # initial version exists implicitly
                else:
                    install_committed(self.store, tn, ((key, value),))
            if record.value["next_tn"] - 1 > self.floor:
                self.floor = record.value["next_tn"] - 1
        return None

    def replay(self, records: Iterable[LogRecord]) -> list[int]:
        """Apply ``records``; the committed tns, ascending, one per transaction."""
        committed: dict[int, int] = {}
        for record in records:
            tn = self.apply(record)
            if tn is not None:
                committed[record.txn_id] = tn
        return sorted(committed.values())


def recover(log: WriteAheadLog) -> tuple[MVStore, VersionControl]:
    """Rebuild store and version control from the durable log.

    Recovery starts from the last durable CHECKPOINT that carries versions
    (if any) — the retained version set and the numbering frontier — and
    redoes the records after it in log order (:class:`Redo`).  A
    version-less CHECKPOINT (a shard's visibility or xlog marker) is not a
    restart point: it says nothing of the versions before it, so redo runs
    over it and takes only its numbering frontier.  Uncommitted
    writes (no durable COMMIT) and aborted transactions leave nothing —
    their versions never existed durably.  The rebuilt ``VersionControl``
    resumes numbering above the highest committed number, with full
    visibility (every surviving transaction is complete).

    A torn tail record (interrupted ``force()``) marks the durable
    boundary; a malformed record before the tail raises
    :class:`~repro.errors.CorruptLogError`.
    """
    records = validate_durable(log)
    redo = Redo(MVStore())
    committed = redo.replay(records[_restart_point(records):])
    max_tn = max(redo.floor, committed[-1] if committed else 0)
    return redo.store, VersionControl(first_tn=max_tn + 1)


def _restart_point(records: list[LogRecord]) -> int:
    """Index of the last CHECKPOINT in ``records`` that carries versions —
    where recovery starts and before which truncation may cut — or 0.

    A version-less CHECKPOINT (a shard's visibility or xlog marker) says
    nothing of the versions before it, so it is never a restart point.
    """
    for index in range(len(records) - 1, -1, -1):
        record = records[index]
        if record.kind is RecordKind.CHECKPOINT and record.value["versions"]:
            return index
    return 0


def redo_summary(records: Iterable[LogRecord]) -> dict[str, int]:
    """Counts by record kind — used by tests and the recovery example."""
    summary: dict[str, int] = {}
    for record in records:
        summary[record.kind.value] = summary.get(record.kind.value, 0) + 1
    return summary
