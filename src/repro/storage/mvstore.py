"""The multiversion store.

Maps keys to :class:`~repro.storage.versioned_object.VersionedObject` chains.
All protocols in the library share this substrate; each exercises a different
subset of its operations:

* version-control read-only transactions: :meth:`read_snapshot`;
* VC + 2PL read-write transactions: :meth:`read_latest_committed` and
  :meth:`install` at commit (writes are staged privately until the lock
  point, per Figure 4's "create y_j with version phi");
* timestamp-ordering protocols: :meth:`version_leq` with pending versions
  placed by :meth:`place_pending` and resolved by :meth:`commit_pending` /
  :meth:`discard_pending`.

Every object springs into existence on first touch with an initial version
numbered 0 holding None (or the value :meth:`MVStore.preload` gave it),
attributed to the notional initializing transaction T0.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator

from repro.storage.version import Version
from repro.storage.versioned_object import VersionedObject


class MVStore:
    """Key-addressed multiversion storage."""

    def __init__(self):
        self._objects: dict[Hashable, VersionedObject] = {}
        #: Total versions ever discarded by garbage collection.
        self.gc_discarded = 0

    # -- object access ------------------------------------------------------------

    def object(self, key: Hashable) -> VersionedObject:
        """The version chain for ``key``, created on first use."""
        obj = self._objects.get(key)
        if obj is None:
            obj = VersionedObject(key)
            self._objects[key] = obj
        return obj

    def preload(self, contents: dict[Hashable, Any]) -> None:
        """Populate initial versions (version 0) from a dict."""
        for key, value in contents.items():
            if key in self._objects:
                raise KeyError(f"object {key!r} already exists")
            self._objects[key] = VersionedObject(key, value)

    def keys(self) -> Iterator[Hashable]:
        return iter(self._objects)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    # -- reads ----------------------------------------------------------------------

    def read_snapshot(self, key: Hashable, sn: float) -> Version:
        """Largest committed version with ``tn <= sn`` — Figure 2's read rule.

        Under the version-control mechanism ``sn <= vtnc``, so every version
        at or below ``sn`` is committed and the committed filter never skips
        anything; it is kept for defense in depth and for baselines.
        """
        obj = self._objects.get(key)  # ``object``'s hit, written out: reads dominate
        if obj is None:
            obj = self.object(key)
        return obj.committed_version_leq(sn)

    def read_latest_committed(self, key: Hashable) -> Version:
        """Most recent committed version — the 2PL read-write read rule."""
        return self.object(key).latest_committed()

    def version_leq(self, key: Hashable, bound: float) -> Version:
        """Largest version (pending included) with ``tn <= bound``."""
        return self.object(key).version_leq(bound)

    # -- writes ------------------------------------------------------------------------

    def install(self, key: Hashable, tn: int, value: Any) -> Version:
        """Install a committed version — 2PL's commit-time database update."""
        return self.object(key).install(tn, value, pending=False)

    def place_pending(
        self, key: Hashable, tn: int, value: Any, creator_txn_id: int | None = None
    ) -> Version:
        """Place a pending version — timestamp ordering's granted write."""
        return self.object(key).install(
            tn, value, pending=True, creator_txn_id=creator_txn_id
        )

    def commit_pending(self, key: Hashable, tn: int) -> Version:
        return self.object(key).commit_pending(tn)

    def discard_pending(self, key: Hashable, tn: int) -> None:
        """Destroy an aborted writer's pending version (Section 3.2)."""
        self.object(key).remove(tn)

    # -- statistics / maintenance --------------------------------------------------------

    def version_count(self) -> int:
        """Total retained versions across all objects."""
        return sum(len(obj) for obj in self._objects.values())

    def chain_stats(self) -> tuple[int, int]:
        """``(live_versions, longest_chain)`` across all objects.

        The version footprint a traced ``gc.sweep`` carries: total retained
        versions, and the longest single object's chain (the worst case a
        snapshot read must scan).
        """
        total = 0
        longest = 0
        for obj in self._objects.values():
            n = len(obj)
            total += n
            if n > longest:
                longest = n
        return total, longest

    def prune(self, horizon: float) -> int:
        """Horizon-only garbage collection: keep, per object, the newest
        version at or below ``horizon`` plus everything younger.  Returns
        versions discarded.

        This is the paper's literal Section 6 rule — correct but unbounded
        under a pinned old snapshot (the whole suffix above the horizon
        survives).  The bounded collector uses :meth:`prune_versions`; this
        path remains for baselines and the legacy/bench comparison.
        """
        discarded = 0
        for obj in self._objects.values():
            discarded += obj.prune_older_than(horizon)
        self.gc_discarded += discarded
        return discarded

    def prune_versions(
        self, visible: float, pins: list[float]
    ) -> tuple[int, int, int]:
        """Range-tracked garbage collection over every chain.

        ``pins`` is the ascending list of live read-only snapshot numbers;
        ``visible`` is ``vtnc``.  Each chain retains exactly the versions
        some live (or future) snapshot reads — see
        :meth:`~repro.storage.versioned_object.VersionedObject.prune_unreachable`.

        Returns ``(discarded, interior, scanned)``: versions reclaimed,
        the subset a horizon-only collector would have retained, and the
        total versions examined (the sweep-cost counter the amortized-
        reclamation accounting is built on).
        """
        discarded = 0
        interior = 0
        scanned = 0
        for obj in self._objects.values():
            scanned += len(obj)
            d, i = obj.prune_unreachable(visible, pins)
            discarded += d
            interior += i
        self.gc_discarded += discarded
        return discarded, interior, scanned

    def prune_some(
        self,
        horizon: float,
        max_objects: int,
        cursor: int = 0,
        pins: list[float] | None = None,
        visible: float | None = None,
    ) -> tuple[int, int]:
        """Incremental collection: prune at most ``max_objects`` objects,
        resuming from ``cursor``.

        With ``pins``/``visible`` given, each touched chain is compacted by
        the range-tracking rule (:meth:`prune_versions`); otherwise by the
        horizon-only rule.  Returns ``(discarded, next_cursor)``;
        ``next_cursor`` wraps to 0 after a full cycle.  Amortizes
        collection cost across many small passes — the budgeted strategy
        of :mod:`repro.storage.gc_strategies`.
        """
        keys = list(self._objects)
        if not keys:
            return 0, 0
        cursor %= len(keys)
        discarded = 0
        scanned = 0
        while scanned < min(max_objects, len(keys)):
            key = keys[(cursor + scanned) % len(keys)]
            obj = self._objects[key]
            if pins is not None and visible is not None:
                discarded += obj.prune_unreachable(visible, pins)[0]
            else:
                discarded += obj.prune_older_than(horizon)
            scanned += 1
        next_cursor = (cursor + scanned) % len(keys)
        self.gc_discarded += discarded
        return discarded, next_cursor
