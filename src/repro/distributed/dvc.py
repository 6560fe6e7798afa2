"""Per-site version control for the distributed extension (paper Section 6).

Reconstruction of ref [3]'s distributed version control (the full technical
report is unavailable; DESIGN.md documents the substitution).  Each site
keeps its own ``tnc``/``vtnc``/``VCQueue`` over *global* transaction numbers
(:mod:`repro.distributed.gtn`).  The distributed wrinkles relative to the
centralized module of Figure 1:

* **hold / adopt** — a distributed read-write transaction reserves a number
  at every participant during 2PC prepare (``hold``), and the coordinator's
  decided number — the maximum of the holds, so it is admissible
  everywhere — replaces the reservation at commit (``adopt``).  A held
  entry blocks visibility exactly like an active centralized registrant,
  and adoption can only move an entry *toward the tail* of the queue.
* **observe** — Lamport-style counter advance on any number seen in a
  message, keeping future local numbers above adopted remote ones.
* **try_advance_to** — liveness for global read-only transactions: an idle
  site (empty queue) may fast-forward its visibility to a requested start
  number, because every transaction it knows about has completed and every
  future hold will exceed the advanced counter.

Observers fire on visibility advances so read-only waits (on VC state only —
never on concurrency-control state) can be parked and released.
"""

from __future__ import annotations

from typing import Callable

from repro.distributed.gtn import counter_of, make_gtn
from repro.errors import InvariantViolation, ProtocolError


class _Entry:
    __slots__ = ("txn_key", "num", "completed")

    def __init__(self, txn_key: int, num: int):
        self.txn_key = txn_key
        self.num = num
        self.completed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "complete" if self.completed else "held"
        return f"E({self.txn_key}, {self.num}, {state})"


class DistributedVersionControl:
    """One site's version-control state over global transaction numbers."""

    def __init__(self, site_id: int):
        self.site_id = site_id
        self._counter = 1  # local counter component
        self._vtnc = 0
        self._entries: dict[int, _Entry] = {}
        self._order: list[_Entry] = []  # sorted by num
        self._observers: list[Callable[[int], None]] = []

    # -- inspection ---------------------------------------------------------------

    @property
    def vtnc(self) -> int:
        return self._vtnc

    @property
    def next_local_number(self) -> int:
        return make_gtn(self._counter, self.site_id)

    def queue_length(self) -> int:
        return len(self._order)

    def is_registered(self, txn_key: int) -> bool:
        return txn_key in self._entries

    def subscribe(self, observer: Callable[[int], None]) -> None:
        """``observer(vtnc)`` fires after every visibility advance."""
        self._observers.append(observer)

    def unsubscribe(self, observer: Callable[[int], None]) -> None:
        """Detach ``observer``; a no-op when it was never subscribed."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # -- entry procedures ------------------------------------------------------------

    def vc_start(self) -> int:
        """Start number for a read-only transaction beginning at this site.

        On an idle site (empty queue) every transaction known here has
        completed, so the freshest safe start number is one below the next
        assignable local number — mirroring the centralized module's
        empty-queue behavior.
        """
        if not self._order:
            top = make_gtn(self._counter, self.site_id) - 1
            if top > self._vtnc:
                self._vtnc = top
        return self._vtnc

    def hold(self, txn_key: int) -> int:
        """Reserve the next local number for a preparing transaction."""
        if txn_key in self._entries:
            raise ProtocolError(f"transaction {txn_key} already holds a number here")
        num = make_gtn(self._counter, self.site_id)
        self._counter += 1
        entry = _Entry(txn_key, num)
        self._entries[txn_key] = entry
        self._order.append(entry)  # counter is monotone: appends stay sorted
        self._check(appended=True)
        return num

    def adopt(self, txn_key: int, final_num: int) -> None:
        """Replace the held number with the coordinator's decided number."""
        entry = self._entries.get(txn_key)
        if entry is None:
            raise ProtocolError(f"transaction {txn_key} holds no number here")
        if final_num < entry.num:
            raise InvariantViolation(
                f"decided number {final_num} below the hold {entry.num}"
            )
        if final_num != entry.num:
            entry.num = final_num
            self._order.sort(key=lambda e: e.num)
        self.observe(final_num)
        self._check()

    def observe(self, gtn: int) -> None:
        """Lamport advance: future local numbers exceed ``gtn``."""
        if counter_of(gtn) >= self._counter:
            self._counter = counter_of(gtn) + 1

    def complete(self, txn_key: int) -> None:
        entry = self._entries.get(txn_key)
        if entry is None:
            raise ProtocolError(f"transaction {txn_key} holds no number here")
        entry.completed = True
        self._drain()
        self._check()

    def discard(self, txn_key: int) -> None:
        entry = self._entries.pop(txn_key, None)
        if entry is None:
            raise ProtocolError(f"transaction {txn_key} holds no number here")
        self._order.remove(entry)
        self._drain()
        self._check()

    def try_advance_to(self, sn: int) -> bool:
        """Fast-forward an idle site's visibility to ``sn`` when safe.

        Safe exactly when the queue is empty: every transaction known here
        has completed, and advancing the counter guarantees future holds
        exceed ``sn``.  Returns True when visibility now covers ``sn``.
        """
        if self._vtnc >= sn:
            return True
        if self._order:
            return False
        self.observe(sn)
        self._set_vtnc(sn)
        return True

    # -- internals ----------------------------------------------------------------------

    def _drain(self) -> None:
        reached = self._vtnc
        while self._order and self._order[0].completed:
            head = self._order.pop(0)
            del self._entries[head.txn_key]
            reached = max(reached, head.num)
        if not self._order:
            # Idle: everything known has completed.
            reached = max(reached, make_gtn(self._counter, self.site_id) - 1)
        self._set_vtnc(reached)

    def _set_vtnc(self, value: int) -> None:
        if value > self._vtnc:
            self._vtnc = value
            for observer in self._observers:
                observer(self._vtnc)

    def _check(self, appended: bool = False) -> None:
        """Visibility stays below the oldest pending entry, and a hold just
        appended is numbered above its predecessor (``adopt`` re-sorts, so
        an append is the only way the queue could fall out of order)."""
        order = self._order
        if not order:
            return
        if self._vtnc >= order[0].num:
            raise InvariantViolation(
                f"visibility {self._vtnc} covers pending entry {order[0].num}"
            )
        if appended and len(order) > 1 and order[-2].num > order[-1].num:
            raise InvariantViolation(f"queue out of order: {order[-2:]!r}")
