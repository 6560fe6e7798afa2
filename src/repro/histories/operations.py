"""Operations and histories — the paper's Section 3 model, executable.

A history is the totally ordered trace of operations a scheduler produced
(the paper models a partial order; our single-threaded schedulers always
produce a compatible total order, which is sufficient for checking
serializability).  Multiversion operations carry the version they touched:
``r_k[x_j]`` is ``Op(READ, txn=k, key=x, version=j)`` and ``w_i[x_i]`` is
``Op(WRITE, txn=i, key=x, version=i)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator


class OpKind(enum.Enum):
    BEGIN = "b"
    READ = "r"
    WRITE = "w"
    COMMIT = "c"
    ABORT = "a"


@dataclass(frozen=True)
class Op:
    """One operation in a history.

    Attributes:
        kind: operation type.
        txn: transaction number/identifier of the issuing transaction.  For
            histories recorded from protocol runs this is the *serialization*
            number ``tn`` for read-write transactions; read-only transactions
            keep their distinct ids (several may share a start number, per
            the paper's Lemma 1 remark).
        key: object operated on (None for begin/commit/abort).
        version: version subscript — the ``tn`` of the version read or
            created.  None in single-version histories.
    """

    kind: OpKind
    txn: int
    key: Hashable | None = None
    version: int | None = None

    def conflicts_with(self, other: "Op") -> bool:
        """Single-version conflict test: same key, at least one write."""
        if self.key is None or other.key is None or self.key != other.key:
            return False
        if self.txn == other.txn:
            return False
        return OpKind.WRITE in (self.kind, other.kind)

    def __str__(self) -> str:
        if self.kind in (OpKind.BEGIN, OpKind.COMMIT, OpKind.ABORT):
            return f"{self.kind.value}{self.txn}"
        if self.version is None:
            return f"{self.kind.value}{self.txn}[{self.key}]"
        return f"{self.kind.value}{self.txn}[{self.key}_{self.version}]"


def read(txn: int, key: Hashable, version: int | None = None) -> Op:
    """Shorthand constructor: ``read(2, "x", 1)`` is ``r2[x_1]``."""
    return Op(OpKind.READ, txn, key, version)


def write(txn: int, key: Hashable, version: int | None = None) -> Op:
    """Shorthand constructor: ``write(2, "x")`` defaults the version to 2."""
    if version is None:
        version = txn
    return Op(OpKind.WRITE, txn, key, version)


def commit(txn: int) -> Op:
    return Op(OpKind.COMMIT, txn)


def abort(txn: int) -> Op:
    return Op(OpKind.ABORT, txn)


@dataclass
class History:
    """A totally ordered (multiversion or single-version) history.

    The same class represents both flavors: operations with ``version`` set
    form a multiversion history, operations without form a single-version
    one.  Analysis helpers treat the committed projection — operations of
    transactions that committed — because serializability quantifies over
    committed transactions only.
    """

    ops: list[Op] = field(default_factory=list)

    # -- construction -----------------------------------------------------------

    def extend(self, ops: Iterable[Op]) -> None:
        self.ops.extend(ops)

    @classmethod
    def parse(cls, text: str) -> "History":
        """Parse the textbook notation: ``"w1[x_1] c1 r2[x_1] c2"``.

        Reads without a version subscript (``r2[x]``) parse as single-version
        operations.  Whitespace separates operations.
        """
        ops: list[Op] = []
        for token in text.split():
            kind = OpKind(token[0])
            rest = token[1:]
            if "[" in rest:
                txn_part, key_part = rest.split("[", 1)
                key_part = key_part.rstrip("]")
                if "_" in key_part:
                    key, _, ver = key_part.rpartition("_")
                    ops.append(Op(kind, int(txn_part), key, int(ver)))
                else:
                    ops.append(Op(kind, int(txn_part), key_part, None))
            else:
                ops.append(Op(kind, int(rest)))
        return cls(ops)

    # -- basic queries ------------------------------------------------------------

    def transactions(self) -> set[int]:
        return {op.txn for op in self.ops}

    def committed(self) -> set[int]:
        return {op.txn for op in self.ops if op.kind is OpKind.COMMIT}

    def aborted(self) -> set[int]:
        return {op.txn for op in self.ops if op.kind is OpKind.ABORT}

    def committed_projection(self) -> "History":
        """History restricted to committed transactions.

        Transactions with neither commit nor abort (still in flight when the
        trace ended) are excluded, matching the convention that only
        committed work counts for serializability.
        """
        keep = self.committed()
        return History([op for op in self.ops if op.txn in keep])

    def operations_of(self, txn: int) -> list[Op]:
        return [op for op in self.ops if op.txn == txn]

    def reads(self) -> Iterator[Op]:
        return (op for op in self.ops if op.kind is OpKind.READ)

    def keys(self) -> set[Hashable]:
        return {op.key for op in self.ops if op.key is not None}

    # -- reads-from (multiversion) ---------------------------------------------

    def reads_from(self) -> set[tuple[int, int, Hashable]]:
        """The multiversion reads-from relation.

        Returns triples ``(reader, writer, key)``: the reader executed
        ``r[x_writer]``.  Reads of the initial version (version <= 0, written
        by the notional initializing transaction T0) report writer 0.
        """
        relation: set[tuple[int, int, Hashable]] = set()
        for op in self.reads():
            if op.version is None:
                raise ValueError(f"{op} is a single-version read; no version recorded")
            writer = op.version if op.version > 0 else 0
            relation.add((op.txn, writer, op.key))
        return relation

    def writers_of(self, key: Hashable) -> list[int]:
        """Transactions that wrote ``key``, in history order."""
        seen: list[int] = []
        for op in self.ops:
            if op.kind is OpKind.WRITE and op.key == key and op.txn not in seen:
                seen.append(op.txn)
        return seen

    # -- well-formedness -----------------------------------------------------------

    def validate(self) -> None:
        """Check the Section 3 transaction restrictions.

        * at most one read and one write per (transaction, key);
        * if a transaction both reads and writes x, the read comes first;
        * no operations after a transaction's commit/abort;
        * a multiversion write by T on x creates version x_T.

        Raises ValueError on the first violation found.
        """
        seen_reads: set[tuple[int, Hashable]] = set()
        seen_writes: set[tuple[int, Hashable]] = set()
        finished: set[int] = set()
        for op in self.ops:
            if op.txn in finished:
                raise ValueError(f"{op} occurs after transaction {op.txn} finished")
            if op.kind is OpKind.READ:
                if (op.txn, op.key) in seen_reads:
                    raise ValueError(f"duplicate read: {op}")
                if (op.txn, op.key) in seen_writes:
                    raise ValueError(f"read after write within transaction: {op}")
                seen_reads.add((op.txn, op.key))
            elif op.kind is OpKind.WRITE:
                if (op.txn, op.key) in seen_writes:
                    raise ValueError(f"duplicate write: {op}")
                seen_writes.add((op.txn, op.key))
                if op.version is not None and op.version != op.txn:
                    raise ValueError(f"{op}: write must create version x_{op.txn}")
            elif op.kind in (OpKind.COMMIT, OpKind.ABORT):
                finished.add(op.txn)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __str__(self) -> str:
        return " ".join(str(op) for op in self.ops)
