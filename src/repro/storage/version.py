"""Version records.

A version is one immutable value of an object, tagged with the transaction
number of its creator.  Version numbers are monotone per object and equal the
creator's ``tn`` (paper Section 3.2), so the per-object version order the
correctness proofs rely on is simply numeric order.

Timestamp-ordering protocols additionally keep per-version timestamps:
``w_ts`` (always the creator's number) and ``r_ts`` (largest number of any
transaction that read this version — used by Reed's MVTO, where a too-late
write between a version and its read timestamp must be rejected).
"""

from __future__ import annotations

from typing import Any


class Version:
    """One version of one object."""

    __slots__ = ("tn", "value", "pending", "r_ts", "r_ts_ro", "r_ts_rw", "creator_txn_id")

    def __init__(
        self,
        tn: int,
        value: Any,
        pending: bool = False,
        creator_txn_id: int | None = None,
    ):
        #: Version number == creator's transaction number (w_ts).
        self.tn = tn
        self.value = value
        #: A pending version exists in the chain but its writer has not
        #: committed; timestamp-ordering readers must wait for it to clear.
        self.pending = pending
        #: Largest transaction number that has read this version.
        self.r_ts = 0
        #: Largest *read-only* and *read-write* reader timestamps — kept
        #: separately by Reed's MVTO baseline, which lets read-only
        #: transactions raise read timestamps; a rejection is attributed to
        #: read-only readers when only r_ts_ro exceeds the writer's number.
        self.r_ts_ro = 0
        self.r_ts_rw = 0
        self.creator_txn_id = creator_txn_id if creator_txn_id is not None else tn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " pending" if self.pending else ""
        return f"<v{self.tn}={self.value!r} r_ts={self.r_ts}{flag}>"
