"""The scheduler interface every protocol implements, plus instrumentation.

A scheduler is a single-threaded state machine: ``begin``, ``read``,
``write``, ``commit`` and ``abort`` are plain method calls that either take
effect immediately or park the operation on an internal wait list, returning
a pending :class:`~repro.core.futures.OpFuture` in that case.  No scheduler
ever blocks the calling thread.

Instrumentation is built in rather than bolted on because the paper's claims
*are* instrumentation statements: "read-only transactions do not have any
concurrency control overhead", "cannot cause aborts of read-write
transactions", "may be blocked due to a pending write".  Every scheduler
therefore counts, uniformly:

* concurrency-control interactions, split by transaction class — calls into
  the CC component (lock requests, timestamp checks, validations);
* version-control interactions, split by class;
* blocking events and which class suffered them;
* aborts by reason, and whether a read-only transaction caused them.
"""

from __future__ import annotations

import abc
from typing import Any, Hashable

from repro.core.futures import OpFuture
from repro.core.transaction import Transaction, TxnClass
from repro.errors import AbortReason, TransactionAborted
from repro.histories.recorder import HistoryRecorder
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.spans import start_span
from repro.obs.tracer import NULL_TRACER, Tracer


class SchedulerCounters:
    """Uniform event counters kept by every scheduler.

    Backed by a :class:`~repro.obs.metrics.MetricsRegistry`, so the same
    counters feed experiment tables, exporters, and ad-hoc inspection; the
    legacy :meth:`bump`/:meth:`get`/:meth:`as_dict` surface is unchanged.
    Protocol-specific events use free-form names via :meth:`bump`
    (e.g. ``"weihl.retry"``, ``"ctl.scan"``) so new protocols never require
    schema changes here.

    When a :class:`~repro.obs.tracer.Tracer` is attached (see
    :func:`repro.obs.instrument.attach_tracer`), every canonical ``note_*``
    call additionally emits a structured trace event — the counters sit on
    every protocol's uniform instrumentation points, so routing the tracer
    through them covers transaction lifecycle, CC/VC interaction, blocking
    and synchronization writes for all protocols at once.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: (event, suffix, kind) -> the counters that canonical event bumps,
        #: resolved on first use: the registry still creates each counter at
        #: its first bump, and no later call formats a name or looks one up.
        self._handles: dict[tuple[str, str, str], tuple[Counter, ...]] = {}

    # -- generic -------------------------------------------------------------

    def bump(self, name: str, amount: int = 1) -> None:
        self.registry.counter(name).inc(amount)

    def get(self, name: str) -> int:
        return self.registry.counter_value(name)

    def as_dict(self) -> dict[str, int]:
        return self.registry.counters_dict()

    # -- canonical events -------------------------------------------------------

    def _count(self, event: str, txn: Transaction, kind: str = "") -> str:
        """Bump ``event.<cls>`` and, given a kind, ``event.<cls>.<kind>``;
        returns the class suffix."""
        suffix = "ro" if txn.is_read_only else "rw"
        handles = self._handles.get((event, suffix, kind))
        if handles is None:
            names = [f"{event}.{suffix}"]
            if kind:
                names.append(f"{event}.{suffix}.{kind}")
            handles = self._handles[event, suffix, kind] = tuple(
                self.registry.counter(name) for name in names
            )
        for counter in handles:
            counter.inc()
        return suffix

    def note_begin(self, txn: Transaction) -> None:
        suffix = self._count("begin", txn)
        if self.tracer.enabled:
            # Root of the transaction's span tree: one fresh trace per
            # transaction, every later span (lock wait, courier hop, 2PC
            # leg) hangs off it.  Kept in txn.span so note_commit /
            # note_abort — and protocol code parenting message sends — can
            # find it without the tracer knowing about transactions.
            txn.span = start_span(
                self.tracer, "txn", parent=None, txn=txn.txn_id, cls=suffix
            )
            self.tracer.emit("txn.begin", txn=txn.txn_id, cls=suffix)

    def _end_txn_span(self, txn: Transaction, ok: bool, **fields: Any) -> None:
        span, txn.span = txn.span, None
        if span is not None:
            span.end(ok=ok, **fields)

    def note_commit(self, txn: Transaction) -> None:
        suffix = self._count("commit", txn)
        if self.tracer.enabled:
            self.tracer.emit("txn.commit", txn=txn.txn_id, cls=suffix, tn=txn.tn)
        self._end_txn_span(txn, ok=True)

    def note_abort(self, txn: Transaction, reason: AbortReason, caused_by_readonly: bool) -> None:
        suffix = self._count("abort", txn, reason.value)
        if caused_by_readonly and not txn.is_read_only:
            self.bump("abort.rw.caused_by_readonly")
        if self.tracer.enabled:
            self.tracer.emit(
                "txn.abort",
                txn=txn.txn_id,
                cls=suffix,
                reason=reason.value,
                ro_caused=caused_by_readonly,
            )
        self._end_txn_span(txn, ok=False, reason=reason.value)

    def note_cc_interaction(self, txn: Transaction, kind: str = "op") -> None:
        """One call into the concurrency-control component for ``txn``."""
        suffix = self._count("cc", txn, kind)
        if self.tracer.enabled:
            self.tracer.emit("cc.call", txn=txn.txn_id, cls=suffix, kind=kind)

    def note_vc_interaction(self, txn: Transaction, kind: str) -> None:
        """One call into the version-control component for ``txn``."""
        suffix = self._count("vc", txn, kind)
        if self.tracer.enabled:
            self.tracer.emit("vc.call", txn=txn.txn_id, cls=suffix, kind=kind)

    def note_block(self, txn: Transaction, cause: str = "") -> None:
        suffix = self._count("block", txn, cause)
        if self.tracer.enabled:
            self.tracer.emit("txn.block", txn=txn.txn_id, cls=suffix, cause=cause)

    def note_sync_write(self, txn: Transaction, kind: str) -> None:
        """A synchronization *write* (shared mutable CC state mutated).

        Reed's MVTO read-only reads update version read timestamps; the
        paper calls this out as overhead and as the mechanism by which
        read-only transactions abort writers.  EXP-A counts these.
        """
        suffix = self._count("syncwrite", txn, kind)
        if self.tracer.enabled:
            self.tracer.emit("txn.syncwrite", txn=txn.txn_id, cls=suffix, kind=kind)


class TransactionBookkeeping:
    """What a transaction manager writes down about an operation, once.

    Shared by :class:`Scheduler` and the multi-site
    :class:`~repro.distributed.base.Distributed2PLDatabase`: one call notes
    a read or write on the descriptor and in the history, and every commit
    or abort ends in the same mark -> count -> record -> finish tail.
    """

    def __init__(self) -> None:
        self.recorder = HistoryRecorder()
        self.counters = SchedulerCounters()
        self._active: dict[int, Transaction] = {}

    def _note_read(self, txn: Transaction, key: Hashable, version_tn: int | None) -> None:
        """``txn`` read ``key`` at ``version_tn``; None is its own staged
        write (-1 in the read set, the final identity in the history)."""
        txn.record_read(key, -1 if version_tn is None else version_tn)
        self.recorder.record_read(txn, key, version_tn)

    def _note_write(self, txn: Transaction, key: Hashable, value: Any) -> None:
        """``txn`` staged its (first) write of ``key``."""
        txn.record_write(key, value)
        self.recorder.record_write(txn, key)

    def _complete_commit(self, txn: Transaction) -> None:
        """Common tail of every commit: mark, count, record, finish."""
        txn.mark_committed()
        self.counters.note_commit(txn)
        self.recorder.record_commit(txn)
        self._finish(txn)

    def _complete_abort(
        self, txn: Transaction, reason: AbortReason, caused_by_readonly: bool = False
    ) -> None:
        """Common tail of every abort."""
        txn.mark_aborted(reason, caused_by_readonly)
        self.counters.note_abort(txn, reason, caused_by_readonly)
        self.recorder.record_abort(txn)
        self._finish(txn)

    def _finish(self, txn: Transaction) -> None:
        """Last step of every commit and abort: nothing in flight survives.

        The beginning scheduler's record (``txn.private``) drops its
        futures, closures and scheduler handles here; outcome data a
        checker reads after the fact may stay on it.
        """
        self._active.pop(txn.txn_id, None)
        if txn.private is not None:
            txn.private.release()

    def active_transactions(self) -> list[Transaction]:
        return list(self._active.values())

    @property
    def history(self):
        """The multiversion history recorded so far."""
        return self.recorder.history


class Scheduler(TransactionBookkeeping, abc.ABC):
    """Abstract scheduler.

    Concrete protocols (VC+2PL, VC+TO, VC+OCC, and the baselines) subclass
    this.  Shared plumbing — history recording, counters, class bookkeeping —
    lives here; synchronization policy lives in the subclasses.
    """

    #: Short machine name, e.g. ``"vc-2pl"``; used by the registry and benches.
    name: str = "abstract"
    #: Whether the protocol keeps multiple versions (False for SV baselines).
    multiversion: bool = True

    def __init__(self) -> None:
        super().__init__()
        #: Structured-event tracer; NULL_TRACER unless attach_tracer() wired
        #: a real one through this scheduler's components.
        self.tracer: Tracer = NULL_TRACER
        #: Optional :class:`repro.qos.AdmissionController` gating read-write
        #: begins.  Read-only transactions NEVER pass through admission —
        #: the paper's fast path must stay unconditional.  Assign after
        #: construction (``scheduler.admission = AdmissionController(...)``).
        self.admission = None

    # -- lifecycle ---------------------------------------------------------------

    def begin(self, read_only: bool = False, deadline: float | None = None) -> Transaction:
        """Start a transaction of the given class and return its descriptor.

        ``deadline`` is an optional absolute virtual-time deadline carried
        in ``txn.deadline``; the lock manager enforces it on every request
        the transaction queues.  When an admission controller is
        installed, a read-write begin must first take a token — raising
        :class:`~repro.errors.Overloaded` when over capacity — and returns
        it at finish.  Read-only begins bypass admission entirely.
        """
        txn_class = TxnClass.READ_ONLY if read_only else TxnClass.READ_WRITE
        admitted = self.admission is not None and not read_only
        if admitted:
            self.admission.admit()  # raises Overloaded when shed
        txn = Transaction(txn_class, deadline=deadline)
        txn.admitted = admitted
        self._active[txn.txn_id] = txn
        self.counters.note_begin(txn)
        self.recorder.record_begin(txn)
        self._on_begin(txn)
        return txn

    @abc.abstractmethod
    def _on_begin(self, txn: Transaction) -> None:
        """Protocol hook: assign numbers/timestamps, register with VC, etc."""

    @abc.abstractmethod
    def read(self, txn: Transaction, key: Hashable) -> OpFuture:
        """Issue ``r[key]``; resolves with the value read."""

    @abc.abstractmethod
    def write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        """Issue ``w[key]``; resolves with None when the write is accepted."""

    @abc.abstractmethod
    def commit(self, txn: Transaction) -> OpFuture:
        """Finish the transaction; resolves with None once durable."""

    @abc.abstractmethod
    def abort(self, txn: Transaction, reason: AbortReason = AbortReason.USER_REQUESTED) -> None:
        """Abort immediately, releasing whatever the protocol holds."""

    # -- shared helpers -----------------------------------------------------------

    def _finish(self, txn: Transaction) -> None:
        super()._finish(txn)
        if txn.admitted:
            txn.admitted = False
            if self.admission is not None:
                self.admission.release()

    def _note_block(self, txn_id: int, resource: Any) -> None:
        """Lock-manager ``on_block`` callback: count the requester's wait."""
        txn = self._active.get(txn_id)
        if txn is not None:
            self.counters.note_block(txn, "lock")

    def _deadlock_abort(
        self, txn: Transaction, error: BaseException | None, result: OpFuture
    ) -> None:
        """A lock request failed — deadlock victim or, with QoS deadlines,
        an expired wait: abort the requester for the reason the error
        carries, and propagate."""
        assert isinstance(error, TransactionAborted)
        if txn.is_active:
            self.abort(txn, error.reason)
        result.fail(error)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} active={len(self._active)}>"
