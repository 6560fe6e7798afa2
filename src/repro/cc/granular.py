"""Multi-granularity (intention) locking.

The classic Gray-style hierarchy with IS/IX/S/SIX/X modes, as a second mode
algebra over the one lock table of :mod:`repro.cc.lock_manager` — used to
demonstrate the paper's modularity thesis from the concurrency-control side:
the locking substrate can be swapped under ``VC2PLScheduler`` while the
version-control module, the read-only path, and the correctness argument
stay untouched (:class:`repro.protocols.vc_granular.VCGranular2PLScheduler`).

Resources form a tree addressed by path tuples, e.g. ``("db",)`` for the
whole database and ``("db", key)`` for one object.  Acquiring a lock on a
node requires intention locks on every ancestor; the manager takes them
implicitly, in root-to-leaf order, so callers ask only for the leaf they
care about.  A whole-database scan takes one S at the root instead of an S
per key — the granularity trade this substrate exists for.

Compatibility matrix (requested vs held):

            IS    IX    S     SIX   X
    IS      yes   yes   yes   yes   no
    IX      yes   yes   no    no    no
    S       yes   no    yes   no    no
    SIX     yes   no    no    no    no
    X       no    no    no    no    no

Queues, conversions, deadlock detection, deadlines and crash are the lock
table's; what is defined here is the algebra, the root-to-leaf intention
chain in ``acquire`` and the leaf-to-root order of ``release_all``.
"""

from __future__ import annotations

import enum
from typing import Hashable, Iterable

from repro.cc.lock_manager import LockTable
from repro.core.futures import OpFuture
from repro.errors import ProtocolError

Path = tuple[Hashable, ...]


class GranularMode(enum.Enum):
    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    X = "X"


_COMPAT: dict[tuple[GranularMode, GranularMode], bool] = {}


def _fill_compat() -> None:
    M = GranularMode
    yes = [
        (M.IS, M.IS), (M.IS, M.IX), (M.IS, M.S), (M.IS, M.SIX),
        (M.IX, M.IS), (M.IX, M.IX),
        (M.S, M.IS), (M.S, M.S),
        (M.SIX, M.IS),
    ]
    for a in M:
        for b in M:
            _COMPAT[(a, b)] = (a, b) in yes


_fill_compat()


def granular_compatible(held: GranularMode, requested: GranularMode) -> bool:
    """The standard multi-granularity compatibility matrix."""
    return _COMPAT[(held, requested)]


#: Mode implied on ancestors when locking a node in the key mode.
_INTENTION_FOR = {
    GranularMode.IS: GranularMode.IS,
    GranularMode.S: GranularMode.IS,
    GranularMode.IX: GranularMode.IX,
    GranularMode.X: GranularMode.IX,
    GranularMode.SIX: GranularMode.IX,
}

#: Partial order of lock strength, for re-entrant coverage and upgrades.
_STRENGTH = {
    GranularMode.IS: 0,
    GranularMode.IX: 1,
    GranularMode.S: 1,
    GranularMode.SIX: 2,
    GranularMode.X: 3,
}


def covers(held: GranularMode, requested: GranularMode) -> bool:
    """True when holding ``held`` already satisfies ``requested``."""
    M = GranularMode
    if held is requested:
        return True
    table = {
        M.X: {M.IS, M.IX, M.S, M.SIX},
        M.SIX: {M.IS, M.S, M.IX},
        M.S: {M.IS},
        M.IX: {M.IS},
    }
    return requested in table.get(held, set())


def combine(held: GranularMode, requested: GranularMode) -> GranularMode:
    """The mode a holder ends up with after strengthening ``held``.

    Classic conversions: S + IX -> SIX, IX + S -> SIX; otherwise the
    stronger of the two.
    """
    M = GranularMode
    if covers(held, requested):
        return held
    if {held, requested} == {M.S, M.IX}:
        return M.SIX
    return max(held, requested, key=lambda m: _STRENGTH[m])


class GranularLockManager(
    LockTable,
    modes=GranularMode,
    compatible=granular_compatible,
    covers=covers,
    combine=combine,
):
    """The lock table with the intention-mode algebra over path-addressed
    resources."""

    def acquire(
        self,
        txn_id: int,
        path: Path,
        mode: GranularMode,
        deadline: float | None = None,
    ) -> OpFuture:
        """Lock ``path`` in ``mode``, taking intention locks on ancestors.

        The returned future resolves when the *leaf* lock is granted (all
        ancestors necessarily granted first); it fails if the transaction is
        chosen as a deadlock victim, or its ``deadline`` expires, while it
        waits at any level — wherever it waits, that is its one pending
        request.
        """
        if not path:
            raise ProtocolError("path must have at least one element")
        self._require_no_pending(txn_id)
        result = OpFuture(label=("{}{} T{}", mode.value, path, txn_id))
        intention = _INTENTION_FOR[mode]
        steps: list[tuple[Path, GranularMode]] = [
            (path[: depth + 1], intention) for depth in range(len(path) - 1)
        ]
        steps.append((path, mode))

        def advance(index: int) -> None:
            if index == len(steps):
                result.resolve(None)
                return
            step_path, step_mode = steps[index]
            inner = self._request(txn_id, step_path, step_mode, deadline)

            def done(f: OpFuture) -> None:
                if f.failed:
                    result.fail(f.error)
                else:
                    advance(index + 1)

            inner.add_callback(done)

        advance(0)
        return result

    def _release_order(self, held: dict[Path, GranularMode]) -> Iterable[Path]:
        # Leaf-to-root, so intention locks never dangle beneath data.
        return sorted(held, key=len, reverse=True)
