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
* :class:`Distributed2PLDatabase` — key placement, courier sends, deadline
  timers, the locked read-write ``read``/``write``, the commit entry and
  exit, ``abort`` and its fault-path variants, and the crash / recover /
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
from typing import Any, Callable, Hashable, Iterable

from repro.cc.deadlock import WaitsForGraph
from repro.cc.lock_manager import LockManager
from repro.cc.locks import LockMode
from repro.core.futures import OpFuture
from repro.core.interface import TransactionBookkeeping
from repro.core.transaction import Transaction, TxnClass
from repro.distributed.courier import Courier
from repro.errors import (
    AbortReason,
    DeadlineExceeded,
    ProtocolError,
    TransactionAborted,
)
from repro.obs.spans import Span, activate, start_span, txn_context
from repro.obs.tracer import Tracer
from repro.qos.breaker import BreakerBoard
from repro.storage.mvstore import MVStore
from repro.storage.wal import (
    LogRecord,
    RecordKind,
    WriteAheadLog,
    install_committed,
    replay_committed,
    validate_durable,
)


class SiteBase:
    """One database site: partition store + lock table + WAL, fail-stop."""

    def __init__(self, site_id: int, waits_for: WaitsForGraph | None = None):
        self.site_id = site_id
        self.store = MVStore()
        # Victim policy must stay "requester" with a shared waits-for graph.
        self.locks = LockManager(waits_for=waits_for)
        self.wal = WriteAheadLog()
        self._waits_for = waits_for
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

    # -- message arrival ---------------------------------------------------------

    def receive(self, fn: Callable[[], None]) -> None:
        """Run a delivered message, or park it while the site is down."""
        if self.crashed:
            self._parked.append(fn)
        else:
            fn()

    def drain_parked(self) -> list[Callable[[], None]]:
        parked, self._parked = self._parked, []
        return parked

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

    def crash(self, tracer: Tracer) -> int:
        """Fail-stop: the volatile WAL tail and the lock table are lost.

        Pending lock requests fail with ``SITE_FAILURE`` (their holders'
        callbacks run the abort path).  Returns the number of WAL records
        lost.  The site parks messages until :meth:`recover`.
        """
        lost = self.wal.crash()
        self.crashed = True
        self.incarnation += 1
        if tracer.enabled:
            tracer.emit(
                "fault.crash", site=self.site_id, lost_records=lost,
                incarnation=self.incarnation,
            )

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

        Uncommitted WRITE records (no durable COMMIT) are skipped; a torn
        tail is the durable boundary; a malformed mid-log record raises
        :class:`~repro.errors.CorruptLogError`.  The site stays ``crashed``
        — the database reopens it once in-doubt commits are applied.
        """
        self.store = MVStore()
        committed = replay_committed(self.store, validate_durable(self.wal))
        self.locks = LockManager(waits_for=self._waits_for)
        self._restart_numbering(committed)

    def _restart_numbering(self, committed: list[int]) -> None:
        """Numbering hook: rebuild from the durable commit numbers (ascending)."""
        raise NotImplementedError

    def recovery_frontier(self) -> dict[str, int]:
        """Where numbering stands after a restart (``fault.recover`` fields)."""
        raise NotImplementedError


class TwoPLRecord:
    """``txn.private`` of a read-write transaction under distributed 2PL.

    ``futures`` is every operation and commit future handed to the client —
    what a fault abort must fail so nobody waits on a dead site.  Past the
    commit decision ``acks`` is the sites whose leg has not run yet and
    ``commit_at`` the idempotent handler that runs one: what
    :meth:`Distributed2PLDatabase.recover_site` finishes an in-doubt commit
    with.  ``participants`` stays readable after finish; the rest is
    in-flight machinery.
    """

    __slots__ = ("participants", "futures", "acks", "commit_at")

    def __init__(self) -> None:
        self.participants: set[int] = set()
        self.futures: list[OpFuture] = []
        self.acks: set[int] | tuple[()] = ()  # nothing in doubt before the decision
        self.commit_at: Callable[[int], None] | None = None

    def release(self) -> None:
        self.futures = []
        self.commit_at = None


class Distributed2PLDatabase(TransactionBookkeeping):
    """Multi-site database running distributed strict two-phase locking.

    One shared history recorder collects the *global* multiversion history
    so the oracle can check global one-copy serializability.
    """

    #: The record a read-write begin hangs on ``txn.private``.
    rw_record: type[TwoPLRecord] = TwoPLRecord

    #: Optional per-site circuit breakers (repro.qos): operations addressed
    #: to a site whose breaker is open fail fast with ``SITE_UNAVAILABLE``
    #: instead of parking on a dead site.  None disables the feature.
    breakers: BreakerBoard | None = None

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
        self.courier = courier if courier is not None else Courier()

    def _build_site(self, sid: int) -> SiteBase:
        raise NotImplementedError

    def _now(self) -> float:
        """Virtual time when the courier has a clock; 0.0 otherwise."""
        sim = self.courier.sim
        return sim.now if sim is not None else 0.0

    # -- placement and messaging ---------------------------------------------------

    def site_of_key(self, key: Hashable) -> Any:
        """Owning site for ``key``: explicit ``"s<id>:..."`` prefix or hash."""
        if isinstance(key, str) and key[:1] == "s" and ":" in key:
            prefix = key.split(":", 1)[0][1:]
            if prefix.isdigit() and int(prefix) in self.sites:
                return self.sites[int(prefix)]
        return self.sites[(zlib.crc32(str(key).encode()) % len(self.sites)) + 1]

    def _items_at(self, txn: Transaction, site: SiteBase) -> list[tuple[Hashable, Any]]:
        """``txn``'s staged writes owned by ``site``, in write order."""
        return [
            (key, value)
            for key, value in txn.write_set.items()
            if self.site_of_key(key) is site
        ]

    def _send(self, site: SiteBase, fn: Callable[[], None], channel: str) -> None:
        """Dispatch a message to ``site``; parks if the site is down."""
        self.courier.dispatch(lambda: site.receive(fn), channel=channel)

    def _send_for(
        self, txn: Transaction, site: SiteBase, fn: Callable[[], None], channel: str
    ) -> None:
        """Dispatch on ``txn``'s behalf, parenting the message span causally.

        Inside a delivered handler the ambient context (the incoming
        message's span) already names the cause; from client code there is
        none, so the transaction's root span steps in.  Disabled tracer:
        plain send.
        """
        tracer = self.courier.tracer
        if tracer.enabled:
            with activate(tracer, tracer.active_span or txn_context(txn)):
                self._send(site, fn, channel)
        else:
            self._send(site, fn, channel)

    # -- begin / deadlines -----------------------------------------------------------

    def _begin(self, read_only: bool, deadline: float | None = None) -> Transaction:
        txn = Transaction(
            TxnClass.READ_ONLY if read_only else TxnClass.READ_WRITE, deadline=deadline
        )
        self.counters.note_begin(txn)
        self.recorder.record_begin(txn)
        return txn

    def _begin_rw(self, deadline: float | None) -> Transaction:
        """Start a read-write transaction.

        ``deadline`` (absolute virtual time) bounds how long it may block
        or wait to be numbered: a virtual-time timer aborts it with
        ``DEADLINE_EXCEEDED`` if it has not reached its commit decision
        (``txn.tn`` assigned) by then.  Past the decision the commit always
        completes — the sites have been promised it — and the late
        deadline is only counted (``qos.deadline.too_late``).
        """
        txn = self._begin(read_only=False, deadline=deadline)
        txn.private = self.rw_record()
        self._active[txn.txn_id] = txn
        if txn.deadline is not None:
            self._arm_deadline(txn)
        return txn

    def _arm_deadline(self, txn: Transaction) -> None:
        """Virtual-time timer enforcing ``txn``'s deadline (pre-decision only)."""

        def on_deadline() -> None:
            if not txn.is_finished:
                self._expire(txn)

        delay = max(txn.deadline - self._now(), 0.0)
        if not self.courier.call_later(delay, on_deadline):
            # No clock (immediate/manual courier): fall back to passive
            # checks at operation entry (_check_deadline).
            self.counters.bump("qos.deadline.unarmed")

    def _check_deadline(self, txn: Transaction) -> bool:
        """Passive deadline check at operation entry; True when aborted."""
        if txn.deadline is None or self._now() < txn.deadline:
            return False
        return self._expire(txn)

    def _expire(self, txn: Transaction) -> bool:
        """``txn``'s deadline has passed; True when that aborted it."""
        if txn.tn is not None:
            # Past the commit decision: the commit must complete.
            self.counters.bump("qos.deadline.too_late")
            return False
        self.counters.bump("qos.deadline.aborts")
        self._fault_abort(txn, AbortReason.DEADLINE_EXCEEDED)
        return True

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
        site = self.site_of_key(key)
        reading = mode is LockMode.SHARED
        record = txn.private
        record.participants.add(site.site_id)
        self.counters.note_cc_interaction(txn, "r-lock" if reading else "w-lock")
        result = OpFuture(
            label=("{}{}[{}]@s{}", "r" if reading else "w", txn.txn_id, key, site.site_id)
        )
        record.futures.append(result)  # so a fault abort can fail it
        if self._check_deadline(txn) or self._breaker_reject(txn, site):
            return result
        started = False

        def deliver() -> None:
            nonlocal started
            if started or not txn.is_active or result.done:
                return
            started = True
            lock = site.locks.acquire(txn.txn_id, key, mode, deadline=txn.deadline)

            def locked(done: OpFuture) -> None:
                if done.failed:
                    self._failure_abort(txn, done.error, result)
                    return
                if result.done:  # fault abort raced the grant
                    return
                self._breaker_success(site.site_id)
                if not reading:
                    self._note_write(txn, key, value)
                    result.resolve(None)
                elif key in txn.write_set:
                    self._note_read(txn, key, None)
                    result.resolve(txn.write_set[key])
                else:
                    version = site.store.read_latest_committed(key)
                    ident = self._version_ident(version.tn)
                    self._note_read(txn, key, ident)
                    result.resolve(version.value)

            lock.add_callback(locked)

        self._send_for(txn, site, deliver, channel="data")
        return result

    # -- termination ----------------------------------------------------------------------

    def commit(self, txn: Transaction) -> OpFuture:
        txn.require_active()
        result = OpFuture(label=("commit T{}", txn.txn_id))
        if txn.is_read_only:
            self._finish_commit(txn, result)
            return result
        txn.private.futures.append(result)
        if self._check_deadline(txn):
            return result
        # Touched nothing: commit trivially at the first site.
        participants = sorted(txn.private.participants) or [next(iter(self.sites))]
        self._commit_rw(txn, participants, result)
        return result

    def _commit_rw(self, txn: Transaction, participants: list[int], result: OpFuture) -> None:
        """Number ``txn`` and run the commit leg at every participant."""
        raise NotImplementedError

    def _commit_span(self, txn: Transaction, result: OpFuture) -> Span:
        """One "commit" span from the coordinator's first message to the
        final ack; each round's messages and per-site work hang off it."""
        span = start_span(
            self.courier.tracer, "commit", parent=txn_context(txn), txn=txn.txn_id
        )
        result.add_callback(lambda f: span.end(ok=not f.failed))
        return span

    def _broadcast(
        self, participants: list[int], commit_span: Span, handler: Callable[[int], None]
    ) -> None:
        """Send one commit-protocol round: ``handler(sid)`` at every participant."""
        with activate(self.courier.tracer, commit_span.context):
            for sid in participants:
                self._send(self.sites[sid], lambda s=sid: handler(s), channel="2pc")

    def _commit_legs(
        self,
        txn: Transaction,
        participants: list[int],
        result: OpFuture,
        commit_span: Span,
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
        if reason is AbortReason.DEADLINE_EXCEEDED:
            error: TransactionAborted = DeadlineExceeded(
                txn.txn_id, txn.deadline, self._now(), detail=detail
            )
        else:
            error = TransactionAborted(txn.txn_id, reason, detail=detail)
        futures = txn.private.futures  # taken first: the abort's _finish drops them
        self.abort(txn, reason)
        for future in futures:
            if future.pending:
                future.fail(error)

    # -- circuit breakers (repro.qos) ----------------------------------------------

    def _breaker_reject(self, txn: Transaction, site: SiteBase) -> bool:
        """Fast-fail a read-write op against an unavailable site.

        True when the op was rejected: the site is known down (crashed) or
        its breaker is open / refusing probes.  The transaction aborts with
        ``SITE_UNAVAILABLE`` — typed, retryable, and much cheaper than
        parking on a site that cannot answer.
        """
        if self.breakers is None:
            return False
        sid = site.site_id
        if site.crashed:
            self.breakers.record_failure(sid)
        elif self.breakers.allow(sid):
            return False
        self.counters.bump("qos.breaker.fastfail")
        self._fault_abort(
            txn,
            AbortReason.SITE_UNAVAILABLE,
            detail=f"site {sid} unavailable (breaker {self.breakers.for_site(sid).state})",
        )
        return True

    def _breaker_success(self, site_id: int) -> None:
        if self.breakers is not None:
            self.breakers.record_success(site_id)

    def _breaker_failure(self, site_id: int) -> None:
        if self.breakers is not None:
            self.breakers.record_failure(site_id)

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
        lost = self.sites[site_id].crash(self.courier.tracer)
        self._breaker_failure(site_id)
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
                "fault.recover", site=site_id, **site.recovery_frontier(),
                incarnation=site.incarnation,
            )
        for fn in site.drain_parked():
            fn()

    def _resync_numbering(self, site: SiteBase, in_doubt: list[Transaction]) -> None:
        """Hook: database-global numbering repairs for a restarted site."""

    def crash_restart_site(self, site_id: int) -> int:
        """Atomic crash + WAL-replay restart (the drill's fault primitive)."""
        lost = self.crash_site(site_id)
        self.recover_site(site_id)
        return lost
