"""Single-version store for the single-version baseline protocols.

Keeps one committed value per key plus the transaction number of its writer,
so histories recorded against it still carry the reads-from information the
serializability oracle needs (a read is recorded as reading the last
committed writer's "version").

Baselines stage writes privately and apply them atomically at commit (strict
protocols with deferred update), so abort needs no undo log.
"""

from __future__ import annotations

from typing import Any, Hashable


class SVStore:
    """Key-addressed single-version storage with writer attribution."""

    def __init__(self):
        self._values: dict[Hashable, Any] = {}
        self._writer_tn: dict[Hashable, int] = {}

    def read(self, key: Hashable) -> tuple[Any, int]:
        """Return ``(value, writer_tn)`` for ``key``.

        Unknown keys read None, attributed to transaction 0.
        """
        if key in self._values:
            return self._values[key], self._writer_tn[key]
        return None, 0

    def apply(self, key: Hashable, value: Any, writer_tn: int) -> None:
        """Overwrite ``key`` with a committed value."""
        self._values[key] = value
        self._writer_tn[key] = writer_tn
