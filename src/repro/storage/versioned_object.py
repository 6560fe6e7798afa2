"""Per-object version chains.

Each database object owns a list of :class:`~repro.storage.version.Version`
records kept sorted by version number.  Appends dominate (transaction numbers
are assigned in serialization order), but Reed's MVTO may legally insert a
version *between* existing ones, so insertion uses bisect rather than assuming
append-only.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Any, Hashable, Iterator

from repro.errors import ProtocolError, VersionNotFound
from repro.storage.version import Version

_tn = attrgetter("tn")


class VersionedObject:
    """The version chain of a single object.

    Attributes:
        key: the object's identity.
        max_r_ts: object-level read timestamp — the largest transaction
            number that read the *most recent* version; maintained for the
            paper's Figure 3 conflict check ``r-ts(x) > tn(T)``.
    """

    __slots__ = ("key", "_versions", "max_r_ts")

    def __init__(self, key: Hashable, initial_value: Any = None):
        self.key = key
        self._versions: list[Version] = [Version(0, initial_value)]
        self.max_r_ts = 0

    # -- ordering helpers -----------------------------------------------------

    def _index_leq(self, bound: float) -> int:
        """Position of the newest version with ``tn <= bound``; -1 if none."""
        return bisect_right(self._versions, bound, key=_tn) - 1

    def __len__(self) -> int:
        return len(self._versions)

    def versions(self) -> Iterator[Version]:
        """All versions, oldest first."""
        return iter(self._versions)

    # -- reads ------------------------------------------------------------------

    def latest(self) -> Version:
        """The most recent version, pending or not."""
        return self._versions[-1]

    def latest_committed(self) -> Version:
        """The most recent non-pending version.

        Raises VersionNotFound when every retained version is pending (can
        only happen if garbage collection misbehaved — the initial version is
        never pending).
        """
        for version in reversed(self._versions):
            if not version.pending:
                return version
        raise VersionNotFound(self.key, bound=self._versions[-1].tn)

    def version_leq(self, bound: float) -> Version:
        """Largest version with ``tn <= bound`` (pending versions included).

        This is the raw chain lookup; protocol code decides what to do when
        the result is pending (block under timestamp ordering).

        Raises:
            VersionNotFound: every retained version is younger than ``bound``
                (the garbage-collection failure mode the paper notes).
        """
        idx = self._index_leq(bound)
        if idx < 0:
            raise VersionNotFound(self.key, bound)
        return self._versions[idx]

    def committed_version_leq(self, bound: float) -> Version:
        """Largest *committed* version with ``tn <= bound``.

        Under the version-control mechanism every version with
        ``tn <= vtnc`` is committed, so a read-only transaction's snapshot
        read never needs to skip pending versions; baselines without that
        guarantee do.
        """
        versions = self._versions
        idx = bisect_right(versions, bound, key=_tn) - 1  # ``_index_leq``, inlined
        while idx >= 0 and versions[idx].pending:
            idx -= 1
        if idx < 0:
            raise VersionNotFound(self.key, bound)
        return versions[idx]

    # -- writes -----------------------------------------------------------------

    def install(
        self,
        tn: int,
        value: Any,
        pending: bool = False,
        creator_txn_id: int | None = None,
    ) -> Version:
        """Insert a new version numbered ``tn``.

        Raises ProtocolError if a version with this number already exists —
        transaction numbers are unique, so this always indicates a protocol
        bug (e.g. double install at commit).
        """
        pos = self._index_leq(tn)
        if pos >= 0 and self._versions[pos].tn == tn:
            raise ProtocolError(f"object {self.key!r} already has version {tn}")
        version = Version(tn, value, pending=pending, creator_txn_id=creator_txn_id)
        self._versions.insert(pos + 1, version)
        return version

    def find(self, tn: int) -> Version | None:
        """The version numbered exactly ``tn``, or None."""
        pos = self._index_leq(tn)
        if pos >= 0 and self._versions[pos].tn == tn:
            return self._versions[pos]
        return None

    def commit_pending(self, tn: int) -> Version:
        """Clear the pending flag of version ``tn`` (writer committed)."""
        version = self.find(tn)
        if version is None or not version.pending:
            raise ProtocolError(
                f"object {self.key!r} has no pending version {tn} to commit"
            )
        version.pending = False
        return version

    def remove(self, tn: int) -> None:
        """Remove version ``tn`` (writer aborted; its versions are destroyed)."""
        version = self.find(tn)
        if version is None:
            raise ProtocolError(f"object {self.key!r} has no version {tn} to remove")
        self._versions.remove(version)

    # -- read timestamps -----------------------------------------------------------

    def note_read(self, version: Version, reader_tn: int) -> None:
        """Record that ``reader_tn`` read ``version``.

        Updates the per-version ``r_ts`` and, when the version is the most
        recent one, the object-level ``max_r_ts`` used by Figure 3's check.
        """
        if reader_tn > version.r_ts:
            version.r_ts = reader_tn
        if version is self._versions[-1] and reader_tn > self.max_r_ts:
            self.max_r_ts = reader_tn

    # -- garbage collection ------------------------------------------------------

    def prune_older_than(self, horizon: float) -> int:
        """Discard versions strictly older than the newest version <= horizon.

        Keeps the newest version with ``tn <= horizon`` (still needed by any
        snapshot at or above it) and everything younger.  Pending versions
        are never collected: under the version-control protocols a pending
        version's number always exceeds ``vtnc`` and hence the horizon, but
        the guard holds even for callers with looser horizons.  Returns the
        number of versions discarded.
        """
        idx = self._index_leq(horizon)
        # Never collect the version that still serves reads at the horizon,
        # nor any pending version (its writer's fate is undecided).
        for pos, version in enumerate(self._versions):
            if pos >= idx:
                break
            if version.pending:
                idx = pos
                break
        if idx <= 0:
            return 0
        discarded = idx
        del self._versions[:idx]
        return discarded

    def prune_unreachable(self, visible: float, pins: list[float]) -> tuple[int, int]:
        """Range-tracked compaction: retain only versions some live reader
        can actually see (Ben-David et al., arXiv 2108.02775).

        A version ``v`` with successor ``v'`` on this chain is *needed* iff
        some snapshot number in ``[v.tn, v'.tn)`` is live — then ``v`` is
        exactly the version that snapshot reads.  The live snapshot numbers
        are ``pins`` (ascending, the registered read-only start numbers)
        plus ``visible`` (``vtnc`` — the snapshot every *future* read-only
        transaction starts at).  Everything else at or below ``visible`` is
        unreachable and reclaimed, including versions strictly *between*
        two pinned snapshots — the interior reclamation a prefix-only
        pruner cannot perform.  Versions above ``visible`` and pending
        versions are always retained (their fate is not yet decided).

        One merge walk over ``len(chain) + len(pins)`` entries; with the
        collector charging the walk to the versions it reclaims, the
        amortized cost per reclaimed version is O(1).

        Returns ``(discarded, interior)`` where ``interior`` counts
        reclaimed versions a horizon-only collector (``prune_older_than``
        at ``min(pins + [visible])``) would have retained.
        """
        versions = self._versions
        if len(versions) <= 1:
            return 0, 0
        horizon = visible
        for pin in pins:
            if pin < horizon:
                horizon = pin
                break  # pins are ascending: the first is the smallest
        retained: list[Version] = []
        discarded = 0
        interior = 0
        p = 0
        n_pins = len(pins)
        for idx, version in enumerate(versions):
            if version.pending or version.tn > visible:
                retained.append(version)
                continue
            next_tn = versions[idx + 1].tn if idx + 1 < len(versions) else None
            # Advance past pins below this version's number; they pinned an
            # older version (or nothing) and cannot need this one.
            while p < n_pins and pins[p] < version.tn:
                p += 1
            needed = p < n_pins and (next_tn is None or pins[p] < next_tn)
            # The visible snapshot itself pins the newest version <= visible.
            if not needed and (next_tn is None or next_tn > visible):
                needed = True
            if needed:
                retained.append(version)
            else:
                discarded += 1
                if version.tn > horizon:
                    interior += 1
        if discarded:
            self._versions = retained
        return discarded, interior

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.key!r}: {self._versions!r}>"
