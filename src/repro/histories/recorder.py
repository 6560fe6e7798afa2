"""History recorder — the bridge between schedulers and the formal model.

Every scheduler in the library owns a :class:`HistoryRecorder` and reports
each operation as it takes effect.  After a run (test, simulation, example)
the recorded :class:`~repro.histories.operations.History` is fed to the MVSG
checker, turning the paper's Theorem 1 into an executable post-condition.

Recording is one ``list.append`` to one log; the history, the live trace
and the in-flight view are read off that log on demand.

Transaction identities: read-write transactions are recorded under their
transaction number ``tn`` when they have one.  Because under two-phase
locking ``tn`` is only assigned at the lock point, the log names operations
by ``txn_id`` and the history groups them per transaction, emitting them
under the final identity where the finish was recorded; aborted
transactions appear under a negative pseudo-identity so the trace still shows
them (the committed projection drops them anyway).  Read-only transactions
get fresh negative-free identities above a disjoint offset so that several of
them may share a start number without colliding in the graph.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from repro.core.transaction import Transaction
from repro.errors import ProtocolError
from repro.histories.operations import History, Op, OpKind
from repro.obs.tracer import NULL_TRACER

#: Identity offset for read-only transactions, which have no tn of their own.
#: Kept far above any realistic tn so reader nodes never collide with writers.
RO_ID_OFFSET = 10_000_000_000


def _flush(entries: Iterable[tuple], ident: int, finish: str = "") -> Iterator[Op]:
    """One transaction's operations under its final identity: begin, its
    read/write ``entries``, and the ``finish`` (``c``/``a``) if it has one."""
    yield Op(OpKind.BEGIN, ident)
    for kind, _txn_id, key, version, _tn, _ident in entries:
        if kind == "w" or version is None:  # None: read of the own staged write
            version = ident
        yield Op(OpKind(kind), ident, key, version)
    if finish:
        yield Op(OpKind(finish), ident)


class HistoryRecorder:
    """Accumulates the multiversion history produced by one scheduler.

    When a tracer is attached (``attach_tracer`` wires the scheduler's
    recorder like every other component), each recording call also emits a
    ``history.*`` trace event *at the moment the operation takes effect* —
    the stream the online witness (:mod:`repro.obs.witness`) certifies:

    * ``history.begin``  — ``txn``, ``cls``
    * ``history.read``   — ``txn``, ``key``, ``version`` (None = own write)
    * ``history.write``  — ``txn``, ``key``
    * ``history.commit`` — ``txn``, ``ident``, ``tn``, ``cls``
    * ``history.abort``  — ``txn``, ``ident``, ``tn``, ``cls``

    ``txn`` is the process-unique ``txn_id``; the serialization identity
    ``ident`` only exists at finish time, in the event as in the log.
    """

    def __init__(self) -> None:
        #: The one store: ``(kind, txn_id, key, version, tn, ident)`` per
        #: recording call, in effect order, ``kind`` one of ``b r w c a``.
        #: ``version`` is None on a read of the transaction's own staged
        #: write; ``tn`` and ``ident`` are set on commit/abort entries only.
        self.log: list[tuple] = []
        self._abort_seq = 0
        #: Structured-event tracer; NULL_TRACER unless attach_tracer() wired
        #: a real one through the owning scheduler.
        self.tracer = NULL_TRACER
        # The fold behind ``history``: the log prefix consumed so far, and
        # the read/write entries of transactions unfinished within it.
        self._history = History()
        self._folded = 0
        self._open: dict[int, list[tuple]] = {}

    # -- identity ------------------------------------------------------------

    @staticmethod
    def identity(txn: Transaction) -> int:
        """The history identity a transaction's operations are recorded under.

        Raises :class:`~repro.errors.ProtocolError` if a read-write
        transaction carries a ``tn`` at or above :data:`RO_ID_OFFSET` — such
        a tn would alias a read-only node in the history graph and every
        downstream checker would silently attribute the writer's operations
        to a reader.  No correct protocol can reach that range (tns are
        small dense counters), so this is a loud guard against a
        version-control counter gone wild, not a recoverable condition.
        """
        if txn.is_read_only:
            return RO_ID_OFFSET + txn.txn_id
        if txn.tn is not None:
            if txn.tn >= RO_ID_OFFSET:
                raise ProtocolError(
                    f"read-write transaction {txn.txn_id} has tn {txn.tn} >= "
                    f"RO_ID_OFFSET ({RO_ID_OFFSET}); refusing to alias a "
                    f"read-only history node"
                )
            return txn.tn
        raise ValueError(f"transaction {txn.txn_id} has no tn yet; buffer instead")

    # -- recording -----------------------------------------------------------

    def record_begin(self, txn: Transaction) -> None:
        self.log.append(("b", txn.txn_id, None, None, None, None))
        if self.tracer.enabled:
            self.tracer.emit(
                "history.begin",
                txn=txn.txn_id,
                cls="ro" if txn.is_read_only else "rw",
            )

    def record_read(self, txn: Transaction, key: Hashable, version: int | None) -> None:
        """Record a read; ``version=None`` means "the reader's own staged write"
        and becomes the final identity in the history."""
        self.log.append(("r", txn.txn_id, key, version, None, None))
        if self.tracer.enabled:
            self.tracer.emit("history.read", txn=txn.txn_id, key=key, version=version)

    def record_write(self, txn: Transaction, key: Hashable) -> None:
        self.log.append(("w", txn.txn_id, key, None, None, None))
        if self.tracer.enabled:
            self.tracer.emit("history.write", txn=txn.txn_id, key=key)

    def record_commit(self, txn: Transaction) -> None:
        self._record_finish("c", "history.commit", txn, self.identity(txn))

    def record_abort(self, txn: Transaction) -> None:
        # Aborted read-write transactions may have no tn; give them a unique
        # pseudo-identity so the trace remains well-formed.
        if txn.is_read_only:
            ident = RO_ID_OFFSET + txn.txn_id
        elif txn.tn is not None:
            ident = txn.tn
        else:
            self._abort_seq += 1
            ident = -self._abort_seq
        self._record_finish("a", "history.abort", txn, ident)

    def _record_finish(self, kind: str, event: str, txn: Transaction, ident: int) -> None:
        self.log.append((kind, txn.txn_id, None, None, txn.tn, ident))
        if self.tracer.enabled:
            self.tracer.emit(
                event,
                txn=txn.txn_id,
                ident=ident,
                tn=txn.tn,
                cls="ro" if txn.is_read_only else "rw",
            )

    # -- results -------------------------------------------------------------

    @property
    def history(self) -> History:
        """The history recorded so far (finished transactions only).

        Each read folds in the log entries appended since the last one, so
        the one :class:`History` object returned advances when ``history``
        is read again — not behind the caller's back.
        """
        history, unfinished = self._history, self._open
        for entry in self.log[self._folded :]:
            kind, txn_id = entry[0], entry[1]
            if kind == "b":
                unfinished.setdefault(txn_id, [])
            elif kind in "rw":
                unfinished.setdefault(txn_id, []).append(entry)
            else:
                # A finish without recorded operations (no begin, or a second
                # finish replayed by crash recovery) is a bare begin/finish pair.
                history.extend(_flush(unfinished.pop(txn_id, ()), entry[5], kind))
        self._folded = len(self.log)
        return history

    @property
    def live(self) -> list[tuple[str, int, object, int | None, int | None]]:
        """Order-sensitive live trace: (kind, txn_id, key, version_tn, tn).

        Unlike the history (whose operations appear where their transaction
        finished, in serialization identity), it lists events at the moment
        they took effect, enabling order-sensitive properties such as
        strictness (no read of an uncommitted version).
        """
        return [entry[:5] for entry in self.log if entry[0] != "b"]

    def full_history(self) -> History:
        """History including in-flight transactions' operations so far.

        In-flight transactions appear under unique negative identities; they
        are excluded from the committed projection so checkers are
        unaffected.
        """
        combined = History(list(self.history.ops))
        for nth, entries in enumerate(self._open.values(), start=1):
            combined.extend(_flush(entries, -1_000_000 - nth))
        return combined
