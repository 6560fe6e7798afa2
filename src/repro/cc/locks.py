"""Lock modes and compatibility."""

from __future__ import annotations

import enum


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    #: Identity hash, in C: ``Enum.__hash__`` is a Python frame on every
    #: lock request (the lock table is keyed by mode).  Members are
    #: singletons and compare by identity, so dict and set use is unchanged.
    __hash__ = object.__hash__

    def covers(self, other: "LockMode") -> bool:
        """True when holding ``self`` already satisfies a request for ``other``."""
        return self is LockMode.EXCLUSIVE or other is LockMode.SHARED and self is other


def compatible(held: LockMode, requested: LockMode) -> bool:
    """Standard S/X compatibility: only S-S coexists."""
    return held is LockMode.SHARED and requested is LockMode.SHARED


def combine(held: LockMode, requested: LockMode) -> LockMode:
    """The mode a holder ends up with after strengthening ``held``: S + X -> X."""
    return held if held.covers(requested) else requested
