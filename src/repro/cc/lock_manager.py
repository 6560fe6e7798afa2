"""Strict two-phase lock manager.

Grants shared/exclusive locks with FIFO wait queues, lock upgrades, and
continuous deadlock detection over a waits-for graph.  Threadless: a blocked
``acquire`` returns a pending :class:`~repro.core.futures.OpFuture` that the
manager resolves when a release makes the grant possible, or fails with
:class:`~repro.errors.DeadlockError` when the requester (or another cycle
member, per policy) is chosen as a deadlock victim.

Grant discipline:

* a request is granted immediately when the requester already holds a
  covering mode, or when it is compatible with all current holders and no
  incompatible request is queued ahead (no overtaking);
* an upgrade (S held, X requested) jumps to the front of the wait queue and
  is granted as soon as the requester is the sole holder;
* releases grant the longest compatible prefix of the queue.

Deadlines (:mod:`repro.qos`): a request may carry an absolute virtual-time
deadline.  The manager stays clock-free — an external reaper calls
:meth:`LockManager.expire_due` with the current time and every queued
request whose deadline has passed fails with
:class:`~repro.errors.DeadlineExceeded` and is removed from the queue
(no leaked waiters, no spurious wakeups for those behind it).

Invariant relied on by callers: a transaction has at most one pending
request at a time (drivers issue operations sequentially per transaction).
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.cc.deadlock import VictimPolicy, WaitsForGraph, choose_victim
from repro.cc.locks import LockMode, compatible
from repro.core.futures import OpFuture
from repro.errors import DeadlineExceeded, DeadlockError, ProtocolError
from repro.obs.tracer import NULL_TRACER


class _Request:
    __slots__ = ("txn_id", "mode", "future", "upgrade", "deadline")

    def __init__(
        self,
        txn_id: int,
        mode: LockMode,
        future: OpFuture,
        upgrade: bool,
        deadline: float | None = None,
    ):
        self.txn_id = txn_id
        self.mode = mode
        self.future = future
        self.upgrade = upgrade
        self.deadline = deadline

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "upgrade" if self.upgrade else "acquire"
        return f"<{kind} T{self.txn_id} {self.mode.value}>"


class _LockState:
    """Per-key lock table entry: granted modes plus FIFO waiters."""

    __slots__ = ("granted", "queue")

    def __init__(self) -> None:
        self.granted: dict[int, LockMode] = {}
        self.queue: list[_Request] = []


class LockManager:
    """S/X lock manager with deadlock detection.

    Args:
        victim_policy: which cycle member aborts on deadlock.
        on_block: optional callback ``(txn_id, key)`` fired when a request
            blocks — schedulers use it to bump their counters.
        on_deadlock: optional callback ``(victim_id, cycle)`` fired when a
            victim is selected, before its future fails.
    """

    def __init__(
        self,
        victim_policy: VictimPolicy = "requester",
        on_block: Callable[[int, Hashable], None] | None = None,
        on_deadlock: Callable[[int, list[int]], None] | None = None,
        waits_for: WaitsForGraph | None = None,
    ):
        self._table: dict[Hashable, _LockState] = {}
        # Acquisition order, not a set: release_all re-grants waiters key by
        # key, and string-hash order would make that order (and every seeded
        # run downstream of it) depend on PYTHONHASHSEED.
        self._held_keys: dict[int, dict[Hashable, None]] = {}
        self._pending_key: dict[int, Hashable] = {}
        # A waits-for graph may be shared by several managers (one per
        # distributed site) so cycles spanning sites are detected; with a
        # shared graph the victim policy must be "requester", the only
        # transaction guaranteed to have its pending request in *this*
        # manager.
        self.waits_for = waits_for if waits_for is not None else WaitsForGraph()
        self.victim_policy = victim_policy
        self._on_block = on_block
        self._on_deadlock = on_deadlock
        #: Structured-event tracer (lock.grant / lock.block / lock.release /
        #: lock.deadlock); NULL_TRACER unless attach_tracer() wired one.
        self.tracer = NULL_TRACER
        #: Total deadlocks resolved.
        self.deadlocks = 0
        #: Total requests that had to wait.
        self.blocks = 0

    # -- introspection -------------------------------------------------------

    def holders(self, key: Hashable) -> dict[int, LockMode]:
        state = self._table.get(key)
        return dict(state.granted) if state else {}

    def waiting(self, key: Hashable) -> list[int]:
        state = self._table.get(key)
        return [r.txn_id for r in state.queue] if state else []

    def held_by(self, txn_id: int) -> set[Hashable]:
        return set(self._held_keys.get(txn_id, ()))

    def holds(self, txn_id: int, key: Hashable, mode: LockMode) -> bool:
        state = self._table.get(key)
        if not state or txn_id not in state.granted:
            return False
        return state.granted[txn_id].covers(mode)

    def is_idle(self) -> bool:
        """True when no locks are held and no requests wait (test invariant)."""
        return all(not s.granted and not s.queue for s in self._table.values())

    # -- acquire ------------------------------------------------------------------

    def acquire(
        self,
        txn_id: int,
        key: Hashable,
        mode: LockMode,
        deadline: float | None = None,
    ) -> OpFuture:
        """Request ``mode`` on ``key``; the future resolves when granted.

        ``deadline`` (absolute virtual time) only matters if the request
        blocks: a later :meth:`expire_due` sweep fails it with
        :class:`DeadlineExceeded` instead of leaving it to wait forever.
        """
        if txn_id in self._pending_key:
            raise ProtocolError(
                f"transaction {txn_id} already has a pending lock request on "
                f"{self._pending_key[txn_id]!r}"
            )
        state = self._table.setdefault(key, _LockState())
        future = OpFuture(label=f"{mode.value}-lock({key}) T{txn_id}")

        held = state.granted.get(txn_id)
        if held is not None and held.covers(mode):
            future.resolve(None)
            return future

        upgrade = held is LockMode.SHARED and mode is LockMode.EXCLUSIVE
        request = _Request(txn_id, mode, future, upgrade, deadline)

        if self._grantable(state, request):
            self._grant(state, request, key)
            return future

        # Block: upgrades go to the front (they already hold S and must not
        # wait behind new S requests that could never be granted past them).
        self.blocks += 1
        if upgrade:
            pos = 0
            while pos < len(state.queue) and state.queue[pos].upgrade:
                pos += 1
            state.queue.insert(pos, request)
        else:
            state.queue.append(request)
        self._pending_key[txn_id] = key
        self._add_wait_edges(state, request)
        if self.tracer.enabled:
            self.tracer.emit(
                "lock.block",
                txn=txn_id,
                key=key,
                mode=mode.value,
                upgrade=upgrade,
                holders=[h for h in state.granted if h != txn_id],
            )
        if self._on_block is not None:
            self._on_block(txn_id, key)
        self._detect(requester=txn_id)
        return future

    def _grantable(self, state: _LockState, request: _Request) -> bool:
        if request.upgrade:
            # Sole holder (itself) and nothing queued ahead of upgrades.
            return set(state.granted) == {request.txn_id}
        if state.queue:
            return False  # no overtaking
        return all(
            compatible(mode, request.mode)
            for holder, mode in state.granted.items()
            if holder != request.txn_id
        )

    def _grant(
        self, state: _LockState, request: _Request, key: Hashable, waited: bool = False
    ) -> None:
        state.granted[request.txn_id] = request.mode
        self._held_keys.setdefault(request.txn_id, {})[key] = None
        if self.tracer.enabled:
            self.tracer.emit(
                "lock.grant",
                txn=request.txn_id,
                key=key,
                mode=request.mode.value,
                waited=waited,
            )
        request.future.resolve(None)

    def _add_wait_edges(self, state: _LockState, request: _Request) -> None:
        for holder, mode in state.granted.items():
            if holder != request.txn_id and not compatible(mode, request.mode):
                self.waits_for.add(request.txn_id, holder)
        for queued in state.queue:
            if queued is request:
                break
            if queued.txn_id != request.txn_id and not (
                compatible(queued.mode, request.mode)
                and compatible(request.mode, queued.mode)
            ):
                self.waits_for.add(request.txn_id, queued.txn_id)

    # -- release ---------------------------------------------------------------------

    def release_all(self, txn_id: int) -> None:
        """Release every lock of ``txn_id`` and cancel its pending request."""
        self._cancel_pending(txn_id)
        keys = self._held_keys.pop(txn_id, {})
        if self.tracer.enabled and keys:
            self.tracer.emit("lock.release", txn=txn_id, keys=sorted(keys, key=repr))
        for key in keys:
            state = self._table[key]
            state.granted.pop(txn_id, None)
            self._grant_scan(key, state)

    def _cancel_pending(self, txn_id: int) -> None:
        key = self._pending_key.pop(txn_id, None)
        if key is None:
            return
        state = self._table[key]
        state.queue = [r for r in state.queue if r.txn_id != txn_id]
        self.waits_for.remove_waiter(txn_id)
        # Removing a waiter can unblock those queued behind it.
        self._grant_scan(key, state)

    # -- deadlines (repro.qos) ---------------------------------------------------------

    def expire_due(self, now: float) -> list[int]:
        """Fail every queued request whose deadline has passed.

        Called by a QoS reaper (or a test) with the current virtual time.
        Each expired request's future fails with :class:`DeadlineExceeded`,
        the request leaves its queue, and the queue behind it is re-scanned
        so removal never strands a grantable waiter.  Returns the ids of
        transactions whose requests expired.
        """
        expired: list[int] = []
        # One expiry at a time, restarting the scan after each: failing a
        # future cascades synchronously (abort -> release_all -> grant
        # scans), which can grant or cancel other overdue requests before
        # we reach them — a pre-collected batch would go stale.
        while True:
            found: tuple[Hashable, _LockState, _Request] | None = None
            for key, state in self._table.items():
                for request in state.queue:
                    if request.deadline is not None and request.deadline <= now:
                        found = (key, state, request)
                        break
                if found is not None:
                    break
            if found is None:
                return expired
            key, state, request = found
            state.queue.remove(request)
            self._pending_key.pop(request.txn_id, None)
            self.waits_for.remove_waiter(request.txn_id)
            if self.tracer.enabled:
                self.tracer.emit(
                    "qos.deadline.lock",
                    txn=request.txn_id,
                    key=key,
                    deadline=request.deadline,
                    now=now,
                )
            expired.append(request.txn_id)
            self._grant_scan(key, state)
            request.future.fail(
                DeadlineExceeded(request.txn_id, request.deadline or 0.0, now)
            )

    def cancel_request(self, txn_id: int, error: BaseException) -> bool:
        """Fail ``txn_id``'s pending request with ``error``.

        Unlike :meth:`_cancel_pending` (used on abort, where the caller
        already settles the operation future), this *fails* the pending
        lock future — the path a deadline timer or breaker uses to evict a
        specific waiter.  Returns False when nothing was pending.
        """
        key = self._pending_key.pop(txn_id, None)
        if key is None:
            return False
        state = self._table[key]
        request = next(r for r in state.queue if r.txn_id == txn_id)
        state.queue.remove(request)
        self.waits_for.remove_waiter(txn_id)
        self._grant_scan(key, state)
        request.future.fail(error)
        return True

    def _grant_scan(self, key: Hashable, state: _LockState) -> None:
        """Grant the longest now-compatible prefix of the wait queue."""
        granted_any = True
        while granted_any and state.queue:
            granted_any = False
            head = state.queue[0]
            if self._grantable_queued(state, head):
                state.queue.pop(0)
                self._pending_key.pop(head.txn_id, None)
                self.waits_for.remove_waiter(head.txn_id)
                self._grant(state, head, key, waited=True)
                granted_any = True
        self._refresh_wait_edges(state)

    def _grantable_queued(self, state: _LockState, request: _Request) -> bool:
        if request.upgrade:
            return set(state.granted) == {request.txn_id}
        return all(
            compatible(mode, request.mode)
            for holder, mode in state.granted.items()
            if holder != request.txn_id
        )

    def _refresh_wait_edges(self, state: _LockState) -> None:
        """Rebuild waiters' edges for one key after holders changed."""
        for request in state.queue:
            self.waits_for.remove_waiter(request.txn_id)
        for idx, request in enumerate(state.queue):
            for holder, mode in state.granted.items():
                if holder != request.txn_id and not compatible(mode, request.mode):
                    self.waits_for.add(request.txn_id, holder)
            for queued in state.queue[:idx]:
                if queued.txn_id != request.txn_id and not (
                    compatible(queued.mode, request.mode)
                    and compatible(request.mode, queued.mode)
                ):
                    self.waits_for.add(request.txn_id, queued.txn_id)

    # -- crash -----------------------------------------------------------------------

    def crash(self, error_for: Callable[[int], BaseException]) -> list[int]:
        """Fail-stop this manager: all lock state vanishes, waiters fail.

        Lock tables are volatile, so a site crash simply forgets who held
        what — but every *pending* request's future must fail (with
        ``error_for(txn_id)``) or the requester would wait forever on a
        grant that can no longer happen.  Waits-for edges of the failed
        waiters are removed from the (possibly shared) graph.  Returns the
        transaction ids whose pending requests were failed.
        """
        failed_waiters: list[int] = []
        pending: list[_Request] = []
        for state in self._table.values():
            pending.extend(state.queue)
        self._table.clear()
        self._held_keys.clear()
        self._pending_key.clear()
        for request in pending:
            self.waits_for.remove_waiter(request.txn_id)
            failed_waiters.append(request.txn_id)
        if self.tracer.enabled and pending:
            self.tracer.emit("lock.crash", failed_waiters=failed_waiters)
        for request in pending:
            request.future.fail(error_for(request.txn_id))
        return failed_waiters

    # -- deadlock ---------------------------------------------------------------------

    def _detect(self, requester: int) -> None:
        cycle = self.waits_for.find_cycle()
        if cycle is None:
            return
        victim = choose_victim(cycle, self.victim_policy, requester)
        self.deadlocks += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "lock.deadlock",
                victim=victim,
                cycle=list(cycle),
                policy=self.victim_policy,
            )
        if self._on_deadlock is not None:
            self._on_deadlock(victim, cycle)
        key = self._pending_key.pop(victim, None)
        error = DeadlockError(victim, tuple(cycle))
        if key is not None:
            state = self._table[key]
            request = next(r for r in state.queue if r.txn_id == victim)
            state.queue.remove(request)
            self.waits_for.remove_waiter(victim)
            self._grant_scan(key, state)
            request.future.fail(error)
        else:  # pragma: no cover - cycle members always wait
            raise ProtocolError(f"deadlock victim {victim} has no pending request")
