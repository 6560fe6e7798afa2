"""The lock table: strict two-phase locking over any lock-mode algebra.

:class:`LockTable` is the one implementation of granted maps, FIFO wait
queues, lock conversions, continuous deadlock detection over a waits-for
graph, deadlines and crash.  Threadless: ``acquire`` returns an
:class:`~repro.core.futures.OpFuture` — already settled when the grant is
immediate (a table update, nothing pending built), else pending until a
release makes the grant possible, or failed with
:class:`~repro.errors.DeadlockError` when the requester (or another cycle
member, per policy) is chosen as a deadlock victim.

A manager class is the table plus a *mode algebra* — ``compatible``,
``covers``, ``combine`` — named in its class statement and resolved to
per-mode conflict tuples when the class is defined.  :class:`LockManager`
is the table with the S/X algebra over flat keys;
:class:`~repro.cc.granular.GranularLockManager` is the same table with the
IS/IX/S/SIX/X algebra plus the root-to-leaf intention chain.

Grant discipline:

* a request is granted immediately when the requester already holds a
  covering mode, or when it is compatible with all other holders and
  nothing is queued ahead (no overtaking);
* a conversion (a mode held, a stronger one requested; S -> X is the flat
  case) queues ahead of fresh requests and is granted as soon as every
  *other* holder is compatible with the combined mode;
* releases grant the longest compatible prefix of the queue.

Deadlines (:mod:`repro.qos`): a request may carry an absolute virtual-time
deadline.  The table stays clock-free — an external reaper calls
:meth:`LockTable.expire_due` with the current time and every queued
request whose deadline has passed fails with
:class:`~repro.errors.DeadlineExceeded` and is removed from the queue
(no leaked waiters, no spurious wakeups for those behind it).

Invariant relied on by callers: a transaction has at most one pending
request at a time (drivers issue operations sequentially per transaction).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

from repro.cc.deadlock import VICTIM_POLICIES, VictimPolicy, WaitsForGraph, choose_victim
from repro.cc.locks import LockMode, combine, compatible
from repro.core.futures import OpFuture, resolved
from repro.errors import DeadlineExceeded, DeadlockError, ProtocolError
from repro.obs.tracer import NULL_TRACER


class _Request:
    __slots__ = ("txn_id", "resource", "mode", "conflicts", "future", "upgrade", "deadline")

    def __init__(
        self,
        txn_id: int,
        resource: Hashable,
        mode: Any,
        conflicts: tuple,
        future: OpFuture,
        upgrade: bool,
        deadline: float | None,
    ):
        self.txn_id = txn_id
        self.resource = resource
        #: The mode the requester will hold once granted (a conversion's
        #: combined mode, not just the increment asked for).
        self.mode = mode
        #: Held or queued modes this request cannot coexist with.
        self.conflicts = conflicts
        self.future = future
        self.upgrade = upgrade
        self.deadline = deadline

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "upgrade" if self.upgrade else "acquire"
        return f"<{kind} T{self.txn_id} {self.mode.value} {self.resource!r}>"


class _LockState:
    """Per-resource lock table entry: granted modes plus FIFO waiters."""

    __slots__ = ("granted", "queue")

    def __init__(self) -> None:
        self.granted: dict[int, Any] = {}
        self.queue: list[_Request] = []


class LockTable:
    """Lock table with deadlock detection, generic in its mode algebra.

    Subclasses name the algebra in their class statement
    (``class M(LockTable, modes=..., compatible=..., covers=...,
    combine=...)``); it is a fact of the class, not of an instance.

    Args:
        victim_policy: which cycle member aborts on deadlock.
        on_block: optional callback ``(txn_id, resource)`` fired when a
            request blocks — schedulers use it to bump their counters.
        on_deadlock: optional callback ``(victim_id, cycle)`` fired when a
            victim is selected, before its future fails.
    """

    #: held-or-queued modes each mode cannot coexist with
    _conflicts: dict[Any, tuple]
    #: requests each held mode already satisfies
    _covers: dict[Any, tuple]
    _combine: Callable[[Any, Any], Any]

    def __init_subclass__(
        cls,
        modes: Iterable[Any] | None = None,
        compatible: Callable[[Any, Any], bool] | None = None,
        covers: Callable[[Any, Any], bool] | None = None,
        combine: Callable[[Any, Any], Any] | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init_subclass__(**kwargs)
        if modes is None:
            return  # a subclass of a manager inherits its algebra
        modes = tuple(modes)
        if any(compatible(a, b) != compatible(b, a) for a in modes for b in modes):
            raise TypeError(f"{cls.__name__}: compatibility must be symmetric")
        # Identity scans over small tuples: for two to five modes a scan
        # costs less than a per-check set probe.
        cls._conflicts = {
            m: tuple(h for h in modes if not compatible(h, m)) for m in modes
        }
        cls._covers = {h: tuple(m for m in modes if covers(h, m)) for h in modes}
        cls._combine = staticmethod(combine)

    def __init__(
        self,
        victim_policy: VictimPolicy = "requester",
        on_block: Callable[[int, Hashable], None] | None = None,
        on_deadlock: Callable[[int, list[int]], None] | None = None,
        waits_for: WaitsForGraph | None = None,
    ):
        if victim_policy not in VICTIM_POLICIES:
            raise ValueError(
                f"unknown victim policy {victim_policy!r}; expected one of {VICTIM_POLICIES}"
            )
        # A waits-for graph may be shared by several managers (one per
        # distributed site) so cycles spanning sites are detected; with a
        # shared graph the victim policy must be "requester", the only
        # transaction guaranteed to have its pending request in *this*
        # manager.
        if waits_for is not None and victim_policy != "requester":
            raise ValueError(
                f"a shared waits-for graph needs the 'requester' victim policy, "
                f"not {victim_policy!r}"
            )
        self._table: dict[Hashable, _LockState] = {}
        # Acquisition order, not a set: release_all re-grants waiters
        # resource by resource, and string-hash order would make that order
        # (and every seeded run downstream of it) depend on PYTHONHASHSEED.
        self._held: dict[int, dict[Hashable, Any]] = {}
        self._pending: dict[int, _Request] = {}
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
        #: Total grants, a cost proxy (the granularity win shows up here).
        self.grants = 0

    # -- introspection -------------------------------------------------------

    def holders(self, resource: Hashable) -> dict[int, Any]:
        state = self._table.get(resource)
        return dict(state.granted) if state else {}

    def waiting(self, resource: Hashable) -> list[int]:
        state = self._table.get(resource)
        return [r.txn_id for r in state.queue] if state else []

    def held_by(self, txn_id: int) -> dict[Hashable, Any]:
        return dict(self._held.get(txn_id, ()))

    def holds(self, txn_id: int, resource: Hashable, mode: Any) -> bool:
        held = self.holders(resource).get(txn_id)
        return held is not None and mode in self._covers[held]

    def is_idle(self) -> bool:
        """True when no locks are held and no requests wait (test invariant)."""
        return all(not s.granted and not s.queue for s in self._table.values())

    # -- acquire ------------------------------------------------------------------

    def acquire(
        self,
        txn_id: int,
        resource: Hashable,
        mode: Any,
        deadline: float | None = None,
    ) -> OpFuture:
        """Request ``mode`` on ``resource``; the future resolves when granted.

        ``deadline`` (absolute virtual time) only matters if the request
        blocks: a later :meth:`expire_due` sweep fails it with
        :class:`DeadlineExceeded` instead of leaving it to wait forever.
        """
        if txn_id in self._pending:
            raise self._second_request(txn_id)
        return self._request(txn_id, resource, mode, deadline)

    def _second_request(self, txn_id: int) -> ProtocolError:
        return ProtocolError(
            f"transaction {txn_id} already has a pending lock request on "
            f"{self._pending[txn_id].resource!r}"
        )

    def _request(
        self, txn_id: int, resource: Hashable, mode: Any, deadline: float | None
    ) -> OpFuture:
        """One resource, one mode: grant now or queue and look for a cycle.

        A grant now is a table update: it returns a settled future, and a
        :class:`_Request` with a pending future is built only to queue.
        """
        state = self._table.get(resource)
        if state is None:
            state = self._table[resource] = _LockState()
        # Deferred: most labels are never read, so no ``mode.value`` here.
        label = ("{0.value}-lock({1}) T{2}", mode, resource, txn_id)

        held = state.granted.get(txn_id)
        if held is None:
            target = mode
        elif mode in self._covers[held]:
            return resolved(None, label)
        else:
            target = self._combine(held, mode)
        upgrade = held is not None
        conflicts = self._conflicts[target]

        # No overtaking for fresh requests; a conversion only needs the
        # other holders to admit it.
        if (upgrade or not state.queue) and self._admits(state, conflicts, txn_id):
            self._grant(state, txn_id, resource, target, waited=False)
            return resolved(None, label)

        # Block: conversions queue ahead of fresh requests (they already
        # hold a mode that new requests could never be granted past).
        request = _Request(
            txn_id, resource, target, conflicts, OpFuture(label), upgrade, deadline
        )
        self.blocks += 1
        if upgrade:
            pos = 0
            while pos < len(state.queue) and state.queue[pos].upgrade:
                pos += 1
            state.queue.insert(pos, request)
        else:
            state.queue.append(request)
        self._pending[txn_id] = request
        for blocker in self._blockers(state, request):
            self.waits_for.add(txn_id, blocker)
        if self.tracer.enabled:
            self.tracer.emit(
                "lock.block",
                txn_id,
                resource,
                target.value,
                upgrade,
                [h for h in state.granted if h != txn_id],
            )
        if self._on_block is not None:
            self._on_block(txn_id, resource)
        self._detect(requester=txn_id)
        return request.future

    @staticmethod
    def _admits(state: _LockState, conflicts: tuple, txn_id: int) -> bool:
        """Every *other* holder is compatible with the requested mode."""
        for holder, mode in state.granted.items():
            if mode in conflicts and holder != txn_id:
                return False
        return True

    def _grant(
        self, state: _LockState, txn_id: int, resource: Hashable, mode: Any, waited: bool
    ) -> None:
        state.granted[txn_id] = mode
        self._held.setdefault(txn_id, {})[resource] = mode
        self.grants += 1
        if self.tracer.enabled:
            self.tracer.emit("lock.grant", txn_id, resource, mode.value, waited)

    @staticmethod
    def _blockers(state: _LockState, request: _Request) -> list[int]:
        """Whom ``request`` waits for: conflicting holders, then conflicting
        requests queued ahead of it (possibly with repeats)."""
        conflicts = request.conflicts
        blockers = [holder for holder, mode in state.granted.items() if mode in conflicts]
        for queued in state.queue:
            if queued is request:
                break
            if queued.mode in conflicts:
                blockers.append(queued.txn_id)
        return blockers

    # -- release ---------------------------------------------------------------------

    def release_all(self, txn_id: int) -> None:
        """Release every lock of ``txn_id`` and cancel its pending request."""
        self._withdraw(txn_id)
        held = self._held.pop(txn_id, {})
        if self.tracer.enabled and held:
            self.tracer.emit("lock.release", txn_id, sorted(held, key=repr))
        for resource in self._release_order(held):
            self._table[resource].granted.pop(txn_id, None)
            self._grant_scan(resource)

    def _release_order(self, held: dict[Hashable, Any]) -> Iterable[Hashable]:
        return held  # acquisition order

    def _dequeue(self, txn_id: int) -> _Request | None:
        """Take ``txn_id``'s pending request out of its queue and out of the
        waits-for graph.  The caller re-scans the queue: removing a waiter
        can unblock those queued behind it."""
        request = self._pending.pop(txn_id, None)
        if request is not None:
            self._table[request.resource].queue.remove(request)
            self.waits_for.remove_waiter(txn_id)
        return request

    def _withdraw(self, txn_id: int, error: BaseException | None = None) -> bool:
        """Remove ``txn_id``'s pending request and fail its future with
        ``error``.  Without one the lock future is simply dropped: on abort
        the caller settles the operation itself.  False if none was pending."""
        request = self._dequeue(txn_id)
        if request is None:
            return False
        self._grant_scan(request.resource)
        if error is not None:
            request.future.fail(error)
        return True

    def cancel_request(self, txn_id: int, error: BaseException) -> bool:
        """Fail ``txn_id``'s pending request with ``error`` — the path a
        deadline timer or a fault path uses to evict a specific waiter.  Returns
        False when nothing was pending."""
        return self._withdraw(txn_id, error)

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
            request = next(
                (
                    r
                    for state in self._table.values()
                    for r in state.queue
                    if r.deadline is not None and r.deadline <= now
                ),
                None,
            )
            if request is None:
                return expired
            self._dequeue(request.txn_id)
            if self.tracer.enabled:
                self.tracer.emit(
                    "qos.deadline.lock",
                    request.txn_id,
                    request.resource,
                    request.deadline,
                    now,
                )
            expired.append(request.txn_id)
            self._grant_scan(request.resource)
            request.future.fail(DeadlineExceeded(request.txn_id, request.deadline, now))

    def _grant_scan(self, resource: Hashable) -> None:
        """Grant the longest now-compatible prefix of the wait queue, then
        rebuild the remaining waiters' edges (the holders changed)."""
        state = self._table[resource]
        while state.queue:
            head = state.queue[0]
            if not self._admits(state, head.conflicts, head.txn_id):
                break
            state.queue.pop(0)
            self._pending.pop(head.txn_id, None)
            self.waits_for.remove_waiter(head.txn_id)
            self._grant(state, head.txn_id, resource, head.mode, waited=True)
            head.future.resolve(None)
        for request in state.queue:
            self.waits_for.rewire(request.txn_id, self._blockers(state, request))

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
        pending = [r for state in self._table.values() for r in state.queue]
        self._table.clear()
        self._held.clear()
        self._pending.clear()
        failed_waiters = [request.txn_id for request in pending]
        for txn_id in failed_waiters:
            self.waits_for.remove_waiter(txn_id)
        if self.tracer.enabled and pending:
            self.tracer.emit("lock.crash", failed_waiters)
        for request in pending:
            request.future.fail(error_for(request.txn_id))
        return failed_waiters

    # -- deadlock ---------------------------------------------------------------------

    def _detect(self, requester: int) -> None:
        cycle = self.waits_for.find_cycle(requester)
        if cycle is None:
            return
        victim = choose_victim(cycle, self.victim_policy, requester)
        self.deadlocks += 1
        if self.tracer.enabled:
            self.tracer.emit("lock.deadlock", victim, list(cycle), self.victim_policy)
        if self._on_deadlock is not None:
            self._on_deadlock(victim, cycle)
        evicted = self._withdraw(victim, DeadlockError(victim, tuple(cycle)))
        if not evicted:  # pragma: no cover - cycle members always wait
            raise ProtocolError(f"deadlock victim {victim} has no pending request")


class LockManager(
    LockTable, modes=LockMode, compatible=compatible, covers=LockMode.covers, combine=combine
):
    """The lock table with the S/X algebra over flat keys."""

    def held_by(self, txn_id: int) -> set[Hashable]:
        return set(self._held.get(txn_id, ()))
