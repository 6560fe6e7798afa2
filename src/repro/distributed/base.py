"""What every partitioned strict-2PL database shares: the site and its shell.

:class:`~repro.distributed.database.DistributedVCDatabase` (paper Section 6)
and :class:`~repro.distributed.dmv2pl.DistributedMV2PL` (the ref [8]
baseline) differ in how commits are *numbered* and made *visible* — and in
nothing else.  Everything else lives here, once:

* :class:`SiteBase` — one site's store, lock table and WAL; message parking
  while down; the fail-stop crash; WAL-replay restart; and **the per-site
  commit leg**, the one place the sequence *log → force → adopt number →
  install → release → complete* is written (DESIGN.md, "The commit
  sequence").  A subclass supplies only the numbering hooks.
* :class:`Distributed2PLDatabase` — key placement, courier sends, the
  locked read-write ``read``/``write``, the commit entry and exit,
  ``abort`` and its fault-path variants, and the crash / recover /
  redeliver skeleton.  A subclass supplies begin, the read-only read, and
  how a read-write commit is numbered (:meth:`_commit_rw`).

Fault-tolerance contract (the ``repro.faults`` drills exercise all of it):
every message handler is idempotent, so duplicated or retransmitted
deliveries are harmless; a site forces its WAL before installing or
acking, so a commit leg is replayable; a crashed site parks arriving
messages and recovery redelivers them.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Any, Callable, Hashable, Iterable

from repro.cc.deadlock import WaitsForGraph
from repro.cc.lock_manager import LockManager
from repro.cc.locks import LockMode
from repro.core.futures import OpFuture, OpStatus
from repro.core.interface import TransactionBookkeeping
from repro.core.transaction import Transaction, TxnClass
from repro.distributed.courier import Courier
from repro.errors import AbortReason, ProtocolError, TransactionAborted
from repro.obs.spans import NULL_SPAN, NullSpan, Span, activate, start_span, txn_context
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.storage.mvstore import MVStore
from repro.storage.wal import (
    LogRecord,
    RecordKind,
    Redo,
    WriteAheadLog,
    install_committed,
    validate_durable,
)


class SiteBase:
    """One database site: partition store + lock table + WAL, fail-stop."""

    #: Protocol channel -> this site's courier channel (a shard's: ``2pc.s3``...).
    channels: dict[str, str] = {name: name for name in ("2pc", "data", "read", "snapshot")}

    def __init__(self, site_id: int, waits_for: WaitsForGraph):
        self.site_id = site_id
        self.store = MVStore()
        # Victim policy must stay "requester" with a shared waits-for graph.
        self.locks = LockManager(waits_for=waits_for)
        self.wal = WriteAheadLog()
        self._waits_for = waits_for
        #: The database's tracer, given by :meth:`_trace`.
        self.tracer: Tracer = NULL_TRACER
        #: True between crash() and recovery: messages park, operations wait.
        self.crashed = False
        #: Bumped on every crash — invariant checkers track visibility
        #: monotonicity *within* an incarnation (a restart may lawfully
        #: re-open visibility at the durable frontier, below a fast-forwarded
        #: pre-crash value).
        self.incarnation = 0
        #: Messages that arrived while the site was down; recovery replays
        #: them (the network redelivers once the node is reachable again).
        self._parked: list[Callable[[], None]] = []

    def _trace(self, tracer: Tracer) -> None:
        self.tracer = self.locks.tracer = self.wal.tracer = tracer

    # -- message arrival ---------------------------------------------------------

    def receive(self, fn: Callable[[], None]) -> None:
        """Run a delivered message, or park it while the site is down."""
        if self.crashed:
            self._parked.append(fn)
        else:
            fn()

    # -- the per-site commit leg ---------------------------------------------------

    def commit_leg(
        self,
        txn_id: int,
        tn: int,
        items: Iterable[tuple[Hashable, Any]],
        on_durable: Callable[[], None] | None = None,
    ) -> None:
        """Commit ``txn_id``'s writes at this site under number ``tn``.

        ``items`` is re-iterable.  ``on_durable`` runs between the two
        halves: whatever it logs rides behind the forced COMMIT record, so
        it is exactly as durable as the commit itself and precedes its
        visibility (``repro.shard``'s cross-shard visibility log).  A
        caller that spans the halves separately calls them directly.
        """
        self.log_commit(txn_id, tn, items)
        if on_durable is not None:
            on_durable()
        self.apply_commit(txn_id, tn, items)

    def log_commit(
        self, txn_id: int, tn: int, items: Iterable[tuple[Hashable, Any]]
    ) -> None:
        """First half: WRITE* and COMMIT(tn) appended, then forced.

        Durability first: the force precedes install and ack, so a later
        crash of this site replays the commit.  This is the site-local
        commit point.
        """
        wal = self.wal
        for key, value in items:
            wal.append(LogRecord(RecordKind.WRITE, txn_id, key=key, value=value))
        wal.append(LogRecord(RecordKind.COMMIT, txn_id, tn=tn))
        wal.force()

    def apply_commit(
        self, txn_id: int, tn: int, items: Iterable[tuple[Hashable, Any]]
    ) -> None:
        """Second half: adopt the number, install, release, complete.

        Idempotent against recovery having replayed the same commit
        (:func:`~repro.storage.wal.install_committed` overwrites in place).
        """
        self._adopt(txn_id, tn)
        install_committed(self.store, tn, items)
        self.locks.release_all(txn_id)
        self._complete(txn_id, tn)

    def _adopt(self, txn_id: int, tn: int) -> None:
        """Numbering hook: ``tn`` is final for ``txn_id`` here."""

    def _complete(self, txn_id: int, tn: int) -> None:
        """Numbering hook: ``tn``'s versions are installed and unlocked —
        let visibility move over them."""
        raise NotImplementedError

    def abort_local(self, txn_id: int) -> None:
        """Drop whatever ``txn_id`` holds at this site."""
        self.locks.release_all(txn_id)

    # -- crash / recovery ----------------------------------------------------------

    def crash(self) -> int:
        """Fail-stop: the volatile WAL tail and the lock table are lost.

        Pending lock requests fail with ``SITE_FAILURE`` (their holders'
        callbacks run the abort path).  Returns the number of WAL records
        lost.  The site parks messages until :meth:`recover`.
        """
        lost = self.wal.crash()
        self.crashed = True
        self.incarnation += 1
        if self.tracer.enabled:
            self.tracer.emit("fault.crash", self.site_id, lost, self.incarnation)

        def error_for(txn_id: int) -> TransactionAborted:
            return TransactionAborted(
                txn_id,
                AbortReason.SITE_FAILURE,
                detail=f"site {self.site_id} crashed",
            )

        self.locks.crash(error_for)
        return lost

    def recover(self) -> None:
        """Rebuild store, lock table and numbering from the durable WAL.

        Redo runs in log order (:class:`~repro.storage.wal.Redo`):
        uncommitted WRITE records (no durable COMMIT) leave nothing; a torn
        tail is the durable boundary; a malformed mid-log record raises
        :class:`~repro.errors.CorruptLogError`.  The site stays ``crashed``
        — the database reopens it once in-doubt commits are applied.  The
        rebuilt parts are traced before anything can use them.
        """
        self.store = MVStore()
        committed = Redo(self.store).replay(validate_durable(self.wal))
        self.locks.tracer = NULL_TRACER
        self.locks = LockManager(waits_for=self._waits_for)
        self._restart_numbering(committed)
        self._trace(self.tracer)

    def _restart_numbering(self, committed: list[int]) -> None:
        """Numbering hook: rebuild from the durable commit numbers (ascending)."""
        raise NotImplementedError

    def recovery_frontier(self) -> dict[str, int]:
        """Where numbering stands after a restart (``fault.recover`` fields)."""
        raise NotImplementedError


class TwoPLRecord:
    """``txn.private`` of a read-write transaction under distributed 2PL.

    ``futures`` is every operation and commit future handed to the client —
    what a fault abort must fail so nobody waits on a dead site.
    ``writes`` is the staged writes grouped by owning site, each in write
    order, filled as each exclusive lock is granted: what that site's
    commit leg logs and installs, so a commit places no key.  Past the
    commit decision ``acks`` is the sites whose leg has not run yet and
    ``commit_at`` the idempotent handler that runs one: what
    :meth:`Distributed2PLDatabase.recover_site` finishes an in-doubt commit
    with.  ``participants`` stays readable after finish; the rest is
    in-flight machinery.
    """

    __slots__ = ("participants", "futures", "writes", "acks", "commit_at")

    def __init__(self) -> None:
        self.participants: set[int] = set()
        self.futures: list[OpFuture] = []
        self.writes: dict[int, dict[Hashable, Any]] = {}
        self.acks: set[int] | tuple[()] = ()  # nothing in doubt before the decision
        self.commit_at: Callable[[int], None] | None = None

    def release(self) -> None:
        self.futures = []
        self.writes = {}
        self.commit_at = None

    def writes_at(self, sid: int) -> Iterable[tuple[Hashable, Any]]:
        """Site ``sid``'s staged writes, in write order (re-iterable)."""
        writes = self.writes.get(sid)
        return writes.items() if writes is not None else ()


class Distributed2PLDatabase(TransactionBookkeeping):
    """Multi-site database running distributed strict two-phase locking.

    One shared history recorder collects the *global* multiversion history
    so the oracle can check global one-copy serializability.
    """

    #: The record a read-write begin hangs on ``txn.private``.
    rw_record: type[TwoPLRecord] = TwoPLRecord

    def __init__(self, n_sites: int, courier: Courier | None):
        if n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        #: ``_active`` holds read-write transactions only, for crash handling.
        super().__init__()
        # One waits-for graph shared by every site's lock manager, so
        # deadlock cycles spanning sites are detected at request time.
        self._global_waits_for = WaitsForGraph()
        self.sites: dict[int, Any] = {
            sid: self._build_site(sid) for sid in range(1, n_sites + 1)
        }
        #: key -> owning site, filled by :meth:`site_of_key`.
        self._placement: dict[Hashable, Any] = {}
        self.courier = courier if courier is not None else Courier()

    def _build_site(self, sid: int) -> SiteBase:
        raise NotImplementedError

    def _trace(self, tracer: Tracer) -> None:
        """The courier and the shared waits-for graph carry the database's
        tracer; each site its own parts."""
        super()._trace(tracer)
        self.courier.tracer = self._global_waits_for.tracer = tracer
        for site in self.sites.values():
            site._trace(tracer)

    # -- placement and messaging ---------------------------------------------------

    def site_of_key(self, key: Hashable) -> Any:
        """Owning site for ``key``, placed by :meth:`_place` on first ask.

        Placement is a pure function of the key and the site set, and the
        site set is fixed: ``sites`` is built once in ``__init__`` and never
        reassigned (``recover_site`` replaces a site's store and locks, not
        the site).  So each key is placed once and remembered — one entry
        per distinct key ever asked about.  Keys equal as dict keys share a
        placement, as they share a store object.
        """
        site = self._placement.get(key)
        if site is None:
            site = self._placement[key] = self._place(key)
        return site

    def _place(self, key: Hashable) -> Any:
        """The placement rule: explicit ``"s<id>:..."`` prefix, else hash."""
        if isinstance(key, str) and key[:1] == "s" and ":" in key:
            prefix = key.split(":", 1)[0][1:]
            if prefix.isdigit() and int(prefix) in self.sites:
                return self.sites[int(prefix)]
        return self.sites[(zlib.crc32(str(key).encode()) % len(self.sites)) + 1]

    def _send_for(
        self, txn: Transaction, site: SiteBase, fn: Callable[[], None], channel: str
    ) -> None:
        """Dispatch to ``site`` on ``txn``'s behalf, parenting the span causally.

        Inside a delivered handler the ambient context (the incoming
        message's span) already names the cause; from client code there is
        none, so the transaction's root span steps in.  Disabled tracer:
        plain dispatch, on the courier channel ``site`` names for ``channel``.
        """
        tracer = self.courier.tracer
        if tracer.enabled:
            with activate(tracer, tracer.active_span or txn_context(txn)):
                self.courier.dispatch(partial(site.receive, fn), site.channels[channel])
        else:
            self.courier.dispatch(partial(site.receive, fn), site.channels[channel])

    # -- begin ----------------------------------------------------------------------

    def _begin(self, read_only: bool) -> Transaction:
        txn = Transaction(TxnClass.READ_ONLY if read_only else TxnClass.READ_WRITE)
        self.counters.note_begin(txn)
        self.recorder.record_begin(txn)
        return txn

    def _begin_rw(self) -> Transaction:
        """Start a read-write transaction."""
        txn = self._begin(read_only=False)
        txn.private = self.rw_record()
        self._active[txn.txn_id] = txn
        return txn

    # -- read-write operations -------------------------------------------------------

    def read(self, txn: Transaction, key: Hashable) -> OpFuture:
        txn.require_active()
        if txn.is_read_only:
            return self._ro_read(txn, key)
        return self._locked_op(txn, key, LockMode.SHARED, None)

    def write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        txn.require_active()
        if txn.is_read_only:
            raise ProtocolError(f"transaction {txn.txn_id} is read-only")
        return self._locked_op(txn, key, LockMode.EXCLUSIVE, value)

    def _ro_read(self, txn: Transaction, key: Hashable) -> OpFuture:
        raise NotImplementedError

    def _version_ident(self, version_tn: int) -> int:
        """The writer identity recorded for a read of version ``version_tn``."""
        return version_tn

    def _locked_op(
        self, txn: Transaction, key: Hashable, mode: LockMode, value: Any
    ) -> OpFuture:
        """One read-write operation: lock at the owning site, then act.

        A shared lock reads the latest committed version (or the
        transaction's own staged write); an exclusive lock stages ``value``
        privately until commit.
        """
        site = self._placement.get(key) or self.site_of_key(key)
        reading = mode is LockMode.SHARED
        record = txn.private
        record.participants.add(site.site_id)
        self.counters.note_cc_interaction(txn, "r-lock" if reading else "w-lock")
        result = OpFuture(
            label=("{}{}[{}]@s{}", "r" if reading else "w", txn.txn_id, key, site.site_id)
        )
        record.futures.append(result)  # so a fault abort can fail it
        started = False

        def deliver() -> None:
            nonlocal started
            if started or not txn.is_active or result._status is not OpStatus.PENDING:
                return
            started = True
            lock = site.locks.acquire(txn.txn_id, key, mode)
            if lock._status is OpStatus.RESOLVED:  # granted at once: act now
                self._act_locked(txn, site, key, reading, value, result)
                return

            def locked(done: OpFuture) -> None:
                if done._status is OpStatus.FAILED:
                    self._failure_abort(txn, done._error, result)
                elif result._status is OpStatus.PENDING:  # else a fault abort raced the grant
                    self._act_locked(txn, site, key, reading, value, result)

            lock.add_callback(locked)

        if self.courier.tracer.enabled:
            self._send_for(txn, site, deliver, channel="data")
        else:
            self.courier.dispatch(partial(site.receive, deliver), site.channels["data"])
        return result

    def _act_locked(
        self,
        txn: Transaction,
        site: SiteBase,
        key: Hashable,
        reading: bool,
        value: Any,
        result: OpFuture,
    ) -> None:
        """The operation under its granted lock, settling ``result``."""
        if not reading:
            self._note_write(txn, key, value)
            txn.private.writes.setdefault(site.site_id, {})[key] = value
            result.resolve(None)
        elif key in txn.write_set:
            self._note_read(txn, key, None)
            result.resolve(txn.write_set[key])
        else:
            version = site.store.read_latest_committed(key)
            self._note_read(txn, key, self._version_ident(version.tn))
            result.resolve(version.value)

    # -- termination ----------------------------------------------------------------------

    def commit(self, txn: Transaction) -> OpFuture:
        txn.require_active()
        result = OpFuture(label=("commit T{}", txn.txn_id))
        if txn.is_read_only:
            self._finish_commit(txn, result)
            return result
        txn.private.futures.append(result)
        # Touched nothing: commit trivially at the first site.
        participants = sorted(txn.private.participants) or [next(iter(self.sites))]
        self._commit_rw(txn, participants, result)
        return result

    def _commit_rw(self, txn: Transaction, participants: list[int], result: OpFuture) -> None:
        """Number ``txn`` and run the commit leg at every participant."""
        raise NotImplementedError

    def _commit_span(self, txn: Transaction, result: OpFuture) -> Span | NullSpan:
        """One "commit" span from the coordinator's first message to the
        final ack; each round's messages and per-site work hang off it.
        A disabled tracer gets :data:`NULL_SPAN` and nothing is built."""
        tracer = self.courier.tracer
        if not tracer.enabled:
            return NULL_SPAN
        span = start_span(tracer, "commit", parent=txn_context(txn), txn=txn.txn_id)
        result.add_callback(lambda f: span.end(ok=not f.failed))
        return span

    def _spanned(self, name: str, body: Callable[..., None], *args: Any, **fields: Any) -> None:
        """Run ``body(*args)`` inside span ``name`` opened with ``fields``
        (as :func:`start_span` takes them); a disabled tracer runs it bare."""
        tracer = self.courier.tracer
        if not tracer.enabled:
            body(*args)
            return
        with start_span(tracer, name, **fields):
            body(*args)

    def _broadcast(
        self,
        participants: list[int],
        commit_span: Span | NullSpan,
        handler: Callable[[int], None],
    ) -> None:
        """Send one commit-protocol round: ``handler(sid)`` at every participant."""
        tracer = self.courier.tracer
        if tracer.enabled:
            with activate(tracer, commit_span.context):
                self._send_round(participants, handler)
        else:
            self._send_round(participants, handler)

    def _send_round(self, participants: list[int], handler: Callable[[int], None]) -> None:
        for sid in participants:
            receive = partial(self.sites[sid].receive, partial(handler, sid))
            self.courier.dispatch(receive, self.sites[sid].channels["2pc"])

    def _commit_legs(
        self,
        txn: Transaction,
        participants: list[int],
        result: OpFuture,
        commit_span: Span | NullSpan,
        leg: Callable[[SiteBase, Any, Callable[[int], None]], None],
    ) -> Callable[[int], None]:
        """Past the decision: the handler that runs ``txn``'s leg at a site.

        ``leg(site, parent_span, acked)`` runs the site's commit leg under
        whatever spans the protocol draws and calls ``acked(sid)`` inside
        the last of them; the final ack acknowledges ``txn``.  The returned
        ``commit_at(sid)`` is idempotent (the ``acks`` guard): a duplicated
        delivery, or the original message arriving after recovery already
        applied the leg, is a no-op.  Registering it on the transaction's
        record is what lets :meth:`recover_site` finish an in-doubt commit;
        ``_finish`` drops it again with the closure chain it pins.
        """
        tracer = self.courier.tracer
        record = txn.private
        acks = record.acks = set(participants)

        def acked(sid: int) -> None:
            acks.discard(sid)
            if not acks:
                self._finish_commit(txn, result)

        def commit_at(sid: int) -> None:
            if sid in acks:
                # Ambient context covers the normal delivery path; recovery
                # calls this directly (no envelope), so fall back to the
                # commit span to keep the leg inside the transaction's tree.
                leg(self.sites[sid], tracer.active_span or commit_span.context, acked)

        record.commit_at = commit_at
        return commit_at

    def _finish_commit(self, txn: Transaction, result: OpFuture) -> None:
        self._complete_commit(txn)
        result.resolve(None)

    def abort(self, txn: Transaction, reason: AbortReason = AbortReason.USER_REQUESTED) -> None:
        if txn.is_finished:
            return
        if txn.is_read_write:
            for sid in txn.private.participants:
                self.sites[sid].abort_local(txn.txn_id)
        self._complete_abort(txn, reason)

    def _failure_abort(
        self, txn: Transaction, error: BaseException | None, result: OpFuture
    ) -> None:
        """An operation's lock request failed: deadlock victim or site crash."""
        assert isinstance(error, TransactionAborted)
        if txn.is_active:
            self.abort(txn, error.reason)
        if result.pending:
            result.fail(error)

    def _fault_abort(self, txn: Transaction, reason: AbortReason, detail: str = "") -> None:
        """Abort a transaction from the fault path, failing its open futures.

        Without this, a client suspended on an operation or commit future
        whose messages died with a site would wait forever.
        """
        if txn.is_finished:
            return
        error = TransactionAborted(txn.txn_id, reason, detail=detail)
        futures = txn.private.futures  # taken first: the abort's _finish drops them
        self.abort(txn, reason)
        for future in futures:
            if future.pending:
                future.fail(error)

    # -- crash / recovery -------------------------------------------------------------

    def crash_site(self, site_id: int) -> int:
        """Fail-stop one site; returns the count of WAL records lost.

        Every active transaction that touched the site and has *not* passed
        its commit decision aborts with ``SITE_FAILURE`` — its locks and
        held numbers there are gone, so it can never commit correctly.
        Transactions *past* the decision are not aborted: the participants
        have been promised the commit; their commit messages park at the
        dead site and recovery applies them (forced-before-ack makes the
        leg replayable).
        """
        # The site fails its lock waiters BEFORE lock holders abort below:
        # an abort releases the holder's locks, and a release against a
        # half-crashed table could grant a queued request that the crash
        # is about to erase.
        lost = self.sites[site_id].crash()
        for txn in list(self._active.values()):
            if site_id in txn.private.participants and txn.tn is None:
                self._fault_abort(
                    txn,
                    AbortReason.SITE_FAILURE,
                    detail=f"site {site_id} crashed before the commit decision",
                )
        return lost

    def recover_site(self, site_id: int) -> None:
        """Restart a crashed site from its durable WAL and redeliver.

        In-doubt commits — transactions past their commit decision whose
        leg has not yet run here — are applied *during* recovery (presumed
        commit: the restarting site asks the coordinator for outcomes),
        before the site accepts any new lock requests.  Without this, the
        crash-erased lock table would let another transaction read or
        overwrite the in-doubt keys ahead of the still-in-flight COMMIT,
        breaking strict-2PL serializability; the later delivery of that
        message is a no-op thanks to the ``acks`` guard.  Messages that
        arrived during the outage are then redelivered.
        """
        site = self.sites[site_id]
        if not site.crashed:
            raise ProtocolError(f"site {site_id} is not crashed")
        site.recover()
        in_doubt = [
            txn for txn in self._active.values() if site_id in txn.private.acks
        ]
        for txn in in_doubt:
            txn.private.commit_at(site_id)
        self._resync_numbering(site, in_doubt)
        site.crashed = False
        if self.courier.tracer.enabled:
            self.courier.tracer.emit(
                "fault.recover", site_id, **site.recovery_frontier(),
                incarnation=site.incarnation,
            )
        parked, site._parked = site._parked, []
        for fn in parked:
            fn()

    def _resync_numbering(self, site: SiteBase, in_doubt: list[Transaction]) -> None:
        """Hook: database-global numbering repairs for a restarted site."""

    def crash_restart_site(self, site_id: int) -> int:
        """Atomic crash + WAL-replay restart (the drill's fault primitive)."""
        lost = self.crash_site(site_id)
        self.recover_site(site_id)
        return lost
