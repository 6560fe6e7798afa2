"""Garbage collection of old versions — paper Section 6, bounded.

The paper's single stated constraint: the collector "must not discard any
version of objects as young as or younger than vtnc", and it may keep
"information about read-only transactions" to go further.  The original
collector here kept a single *horizon* — ``min(vtnc, min active RO sn)`` —
and pruned strictly below it.  Correct, but unbounded: one long-running
analytics snapshot pins the horizon and every chain's suffix above it grows
with the write rate (the production HTAP failure mode).

This module now implements **range-tracked bounded collection** after
Ben-David et al., "Space and Time Bounded Multiversion Garbage Collection"
(arXiv 2108.02775):

* active read-only transactions hold **snapshot leases** — the
  :class:`ReadOnlyRegistry` is a lease table keyed by transaction, with a
  virtual-time TTL, renewal on every read, and oldest-first revocation;
* the retained set is computed from the *actual* set of live snapshot
  numbers: each live ``sn`` pins exactly one version per chain (the newest
  version ``<= sn`` — the one that snapshot reads), and ``vtnc`` pins the
  version every future snapshot starts from;
* everything else at or below ``vtnc`` is reclaimed, **including versions
  between two pinned snapshots** — per-chain compaction a prefix-only
  pruner cannot do.  Retained versions per chain are bounded by
  ``live leases + visibility lag + pending writers + 1``, independent of
  run length;
* the sweep is one merge walk per chain (``O(chain + pins)``); charging
  the walk to the versions it reclaims gives O(1) amortized reclamation,
  tracked by the collector's ``versions_scanned`` / ``total_discarded``
  counters.

When memory pressure still exceeds the high watermark (see
:class:`repro.qos.memory.MemoryPressureController`), the oldest leases are
*revoked*: their pins disappear, GC advances, and the revoked session's
next read fails with a typed, retryable
:class:`~repro.errors.SnapshotTooOld` — degrade, don't die, and never a
wrong read.

The collector remains deliberately independent of the concurrency-control
component, illustrating the paper's modularity argument: it consumes only
the version-control counters and the lease table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.transaction import Transaction
from repro.core.version_control import VersionControl
from repro.errors import ProtocolError, SnapshotTooOld
from repro.obs.tracer import NULL_TRACER
from repro.storage.mvstore import MVStore


@dataclass(slots=True)
class SnapshotLease:
    """One read-only transaction's claim on its snapshot.

    While the lease is live, garbage collection retains (per chain) the one
    version the snapshot at ``sn`` reads.  The lease expires when its
    virtual-time TTL passes without a renewal, and may be revoked earlier
    by the memory-pressure controller; either way the pin is released and
    the session's next read raises :class:`~repro.errors.SnapshotTooOld`.

    A version-controlled scheduler keeps the lease ``register`` returned on
    ``txn.private``, so the read path checks and renews it without a lookup
    in the shared table.
    """

    txn_id: int
    sn: int
    granted_at: float
    expires_at: float  # +inf when the registry has no TTL
    seq: int  # registration order; tie-break for oldest-first revocation
    renewals: int = 0
    revoked: bool = False
    revoke_cause: str | None = None

    @property
    def live(self) -> bool:
        return not self.revoked

    def release(self) -> None:
        """``txn.private`` contract: numbers and flags only, nothing to drop."""


class ReadOnlyRegistry:
    """Lease table for in-flight read-only transactions.

    Backwards-compatible with its multiset ancestor: several read-only
    transactions may share a start number, and ``min_active_sn`` /
    ``active_count`` aggregate over live leases only.  New surface:

    * ``ttl`` and ``clock`` — the virtual-time lease duration and its
      clock, assigned by whoever wires one (the memory campaign); ``None``
      (the start value) means leases never expire by time, preserving the
      original behavior for schedulers that never wire a clock;
    * :meth:`renew` — called on every read; pushes ``expires_at`` out;
    * :meth:`check` — raises :class:`~repro.errors.SnapshotTooOld` for a
      revoked lease (the *only* way a revocation surfaces: never mid-read);
    * :meth:`expire_due` / :meth:`revoke_oldest` — the two revocation
      paths (TTL expiry, memory pressure), both oldest-first and
      deterministic;
    * :meth:`active_sns` — the ascending distinct live snapshot numbers:
      the GC pin set.
    """

    def __init__(self):
        self.ttl: float | None = None
        #: Virtual-time source for lease grant/renewal stamps.  Campaigns
        #: wire ``sim.now``; the default clock pins every stamp to 0.0 so a
        #: TTL-less registry behaves exactly like the original multiset.
        self.clock: Callable[[], float] = lambda: 0.0
        self._counts: dict[int, int] = {}
        self._leases: dict[int, SnapshotLease] = {}
        self._seq = 0
        #: Cumulative revocations, by cause.
        self.revoked_counts: dict[str, int] = {}

    # -- registration -------------------------------------------------------------

    def register(self, txn: Transaction) -> SnapshotLease:
        if txn.sn is None:
            raise ProtocolError(f"transaction {txn.txn_id} has no start number")
        if txn.txn_id in self._leases:
            raise ProtocolError(
                f"transaction {txn.txn_id} already holds a snapshot lease "
                f"(sn={self._leases[txn.txn_id].sn}); register() must be "
                "called exactly once per read-only transaction"
            )
        sn = int(txn.sn)
        now = self.clock()
        self._seq += 1
        lease = SnapshotLease(
            txn_id=txn.txn_id,
            sn=sn,
            granted_at=now,
            expires_at=(now + self.ttl) if self.ttl is not None else float("inf"),
            seq=self._seq,
        )
        self._leases[txn.txn_id] = lease
        self._counts[sn] = self._counts.get(sn, 0) + 1
        return lease

    def deregister(self, txn: Transaction) -> None:
        lease = self._leases.pop(txn.txn_id, None)
        if lease is None:
            raise ProtocolError(
                f"transaction {txn.txn_id} (sn={txn.sn}) holds no snapshot "
                f"lease; live sn multiset: {self.snapshot_counts()!r}"
            )
        if lease.revoked:
            # The pin was already released at revocation time; the session
            # is just cleaning up after its SnapshotTooOld.
            return
        self._release_pin(lease.sn)

    def _release_pin(self, sn: int) -> None:
        count = self._counts.get(sn)
        if count is None:  # pragma: no cover - internal invariant
            raise ProtocolError(
                f"lease table out of sync: sn={sn} missing from multiset "
                f"{self.snapshot_counts()!r}"
            )
        if count == 1:
            del self._counts[sn]
        else:
            self._counts[sn] = count - 1

    # -- lease lifecycle -----------------------------------------------------------

    def lease_of(self, txn: Transaction) -> SnapshotLease | None:
        return self._leases.get(txn.txn_id)

    def check(self, txn: Transaction) -> SnapshotLease:
        """The read-path guard: return the live lease or raise.

        Raises :class:`~repro.errors.SnapshotTooOld` when the lease was
        revoked (memory pressure or TTL expiry) — *before* the read touches
        the store, so a session can never observe a reclaimed version.
        """
        lease = self._leases.get(txn.txn_id)
        if lease is None:
            raise ProtocolError(
                f"transaction {txn.txn_id} holds no snapshot lease; "
                f"live sn multiset: {self.snapshot_counts()!r}"
            )
        if lease.revoked:
            raise SnapshotTooOld(
                txn.txn_id, sn=lease.sn, cause=lease.revoke_cause or "revoked"
            )
        return lease

    def renew(self, txn: Transaction) -> SnapshotLease:
        """Renew on read: push the lease's expiry out by one TTL."""
        lease = self.check(txn)
        self.renew_lease(lease)
        return lease

    def renew_lease(self, lease: SnapshotLease) -> None:
        """:meth:`renew` for a caller already holding its (live) lease."""
        lease.renewals += 1
        if self.ttl is not None:
            lease.expires_at = self.clock() + self.ttl

    # -- revocation ----------------------------------------------------------------

    def _revoke(self, lease: SnapshotLease, cause: str) -> None:
        lease.revoked = True
        lease.revoke_cause = cause
        self._release_pin(lease.sn)
        self.revoked_counts[cause] = self.revoked_counts.get(cause, 0) + 1

    def expire_due(self, now: float) -> list[SnapshotLease]:
        """Revoke every lease whose TTL passed, oldest-first; return them.

        Clock-free by design (like the lock manager's deadline sweep): the
        registry never watches time on its own, someone must sweep it.
        """
        due = [
            lease
            for lease in self._leases.values()
            if lease.live and lease.expires_at <= now
        ]
        due.sort(key=lambda lease: (lease.sn, lease.seq))
        for lease in due:
            self._revoke(lease, "lease_expired")
        return due

    def revoke_oldest(self, count: int = 1, cause: str = "memory_pressure") -> list[SnapshotLease]:
        """Revoke the ``count`` oldest live leases; return them.

        Oldest-first means smallest snapshot number first (those pin the
        oldest versions and block the most reclamation), registration
        order breaking ties — fully deterministic, so seeded campaigns
        replay revocations bit-for-bit.
        """
        victims = sorted(
            (lease for lease in self._leases.values() if lease.live),
            key=lambda lease: (lease.sn, lease.seq),
        )[: max(0, count)]
        for lease in victims:
            self._revoke(lease, cause)
        return victims

    # -- aggregate views (the GC-facing surface) -------------------------------------

    def min_active_sn(self) -> int | None:
        """Smallest start number still pinned by a live lease."""
        return min(self._counts) if self._counts else None

    def active_sns(self) -> list[int]:
        """Ascending distinct live snapshot numbers — the GC pin set."""
        return sorted(self._counts)

    def active_count(self) -> int:
        """Live (unrevoked) leases."""
        return sum(self._counts.values())

    def lease_count(self) -> int:
        """All leases still registered, revoked ones included."""
        return len(self._leases)

    def snapshot_counts(self) -> dict[int, int]:
        """The live sn multiset ``{sn: holders}`` (diagnostics / errors)."""
        return dict(sorted(self._counts.items()))


class GarbageCollector:
    """Periodic bounded version collector for one store and one VC module.

    Each pass retains, per chain, exactly the versions pinned by the live
    snapshot leases plus the ``vtnc`` version and everything younger; see
    the module docstring for the range-tracking rule.  With
    ``bounded=False`` the collector falls back to the paper's literal
    horizon rule (``MVStore.prune``) — kept for the ablation benchmarks
    that measure what bounding buys.
    """

    def __init__(
        self,
        store: MVStore,
        version_control: VersionControl,
        registry: ReadOnlyRegistry | None = None,
        bounded: bool = True,
    ):
        self._store = store
        self._vc = version_control
        self.registry = registry if registry is not None else ReadOnlyRegistry()
        self.bounded = bounded
        #: Cumulative versions discarded by this collector.
        self.total_discarded = 0
        #: Discarded versions a horizon-only collector would have retained
        #: (reclaimed from *between* pinned snapshots) — the range-tracking
        #: dividend.
        self.interior_discarded = 0
        #: Total versions examined across all sweeps — the cost side of the
        #: amortized-reclamation accounting.
        self.versions_scanned = 0
        #: Number of collection passes run.
        self.passes = 0
        #: Structured-event tracer (gc.sweep per pass); NULL_TRACER unless
        #: attach_tracer() wired one.
        self.tracer = NULL_TRACER

    def horizon(self) -> int:
        """The single-horizon bound: ``min(vtnc, min active RO sn)``.

        The unbounded collector prunes strictly below this; the bounded
        collector only uses it to classify interior reclamation.  Exposed
        for tests and the legacy path.
        """
        bound = self._vc.vtnc
        min_sn = self.registry.min_active_sn()
        if min_sn is not None and min_sn < bound:
            bound = min_sn
        return bound

    def scan_cost_per_reclaimed(self) -> float:
        """Amortized sweep cost: versions examined per version reclaimed."""
        if self.total_discarded == 0:
            return float(self.versions_scanned)
        return self.versions_scanned / self.total_discarded

    def collect(self) -> int:
        """Run one collection pass; returns the number of versions discarded."""
        visible = self._vc.vtnc
        pins = self.registry.active_sns()
        if self.bounded:
            discarded, interior, scanned = self._store.prune_versions(
                visible, pins
            )
        else:
            discarded = self._store.prune(self.horizon())
            interior, scanned = 0, 0
        self.total_discarded += discarded
        self.interior_discarded += interior
        self.versions_scanned += scanned
        self.passes += 1
        if self.tracer.enabled:
            live, longest = self._store.chain_stats()
            self.tracer.emit(
                "gc.sweep",
                self.horizon(),
                visible,
                len(pins),
                discarded,
                interior,
                scanned,
                self.registry.active_count(),
                live,
                longest,
            )
        return discarded
