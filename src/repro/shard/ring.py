"""Consistent hash ring: stable, rebalancing-free key placement.

The ring maps every key to one of ``n_shards`` primary shards with three
properties the shard layer depends on:

* **deterministic** — placement is a pure function of ``(key, n_shards)``:
  no process state, no randomness, no insertion order.  Two processes (or
  two seeded drill runs) always agree, which is what makes the campaign's
  double-run byte-determinism check meaningful.
* **stable** — adding keys never moves existing ones, and growing the ring
  from N to N+1 shards remaps only the arc segments the new shard's
  virtual points claim (~1/(N+1) of the keyspace), not everything — the
  classic consistent-hashing contrast with ``hash(key) % N``.
* **overridable** — a key spelled ``"s<id>:..."`` pins itself to shard
  ``id`` explicitly.  Tests and drills use this to build single-shard and
  deliberately cross-shard transactions without reverse-engineering crc32.

Hashing is ``zlib.crc32`` (like the distributed layer's default placement)
over ``VNODES`` virtual points per shard, so shard arcs interleave and the
keyspace splits evenly even at small shard counts.
"""

from __future__ import annotations

import bisect
import zlib

from typing import Hashable

#: Virtual points per shard on the ring.  Enough to keep the largest
#: shard's share within a few percent of 1/N at N <= 64.
VNODES = 64


def _hash(data: str) -> int:
    return zlib.crc32(data.encode())


class HashRing:
    """A consistent-hash placement of the keyspace over ``n_shards`` shards."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        points: list[tuple[int, int]] = []
        for sid in range(1, n_shards + 1):
            for v in range(VNODES):
                points.append((_hash(f"shard:{sid}:vnode:{v}"), sid))
        # Ties (two vnodes hashing identically) resolve by shard id, so the
        # sort — and therefore placement — is still deterministic.
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [sid for _, sid in points]

    def shard_of(self, key: Hashable) -> int:
        """Owning shard id (1-based) for ``key``.

        An explicit ``"s<id>:..."`` prefix pins the key to shard ``id``
        when that shard exists; everything else walks the ring clockwise
        from the key's hash point.
        """
        if isinstance(key, str) and key[:1] == "s" and ":" in key:
            prefix = key.split(":", 1)[0][1:]
            if prefix.isdigit():
                sid = int(prefix)
                if 1 <= sid <= self.n_shards:
                    return sid
        index = bisect.bisect_right(self._points, _hash(str(key)))
        if index == len(self._points):
            index = 0  # wrap past the top of the ring
        return self._owners[index]

    def assignment(self, keys) -> dict[Hashable, int]:
        """Placement of every key in ``keys`` (a stable snapshot for tests)."""
        return {key: self.shard_of(key) for key in keys}

    def moved_fraction(self, other: "HashRing", keys) -> float:
        """Fraction of ``keys`` placed differently by ``other``.

        The rebalancing cost of resizing: for consistent hashing this is
        ~|N - M| / max(N, M) of the keyspace, not ~1.
        """
        keys = list(keys)
        if not keys:
            return 0.0
        moved = sum(1 for key in keys if self.shard_of(key) != other.shard_of(key))
        return moved / len(keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HashRing shards={self.n_shards} vnodes={VNODES}>"
