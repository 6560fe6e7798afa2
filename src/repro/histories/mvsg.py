"""Multiversion serialization graphs — MVSG(H) of paper Section 3.2.

Given a multiversion history H and, for each object x, a total *version
order* over the transactions that wrote x, the MVSG is SG(H) plus *version
order edges*:

    for each reads-from pair (Tj reads x from Ti) and each other writer Tk
    of x (k distinct from i and j):
        if Ti <<_x Tk:  add  Tj -> Tk
        if Tk <<_x Ti:  add  Tk -> Ti

H is one-copy serializable iff MVSG(H) is acyclic for some version order; a
scheduler-chosen version order (here: by version number, which equals the
creator's transaction number — exactly the order the paper's Theorem 1 uses)
is sufficient to certify 1SR when acyclic.

The notional initial transaction T0 (writer of every version numbered <= 0)
participates as node 0.

The graph is *stored* in the compact form of :mod:`repro.histories.derive`:
a version order is a chain, so the rule's "every later writer" and "every
earlier writer" are one edge each through a chain of junctions, and a
history of n operations stores O(n) edges however many versions its objects
accumulate.  The returned :class:`~repro.histories.graphs.FanGraph` answers
every question in transactions only — its nodes, edges, cycles and orders
are those of the graph the rule above spells out.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple

from repro.histories.derive import fan_version_order_edges, sg_edge
from repro.histories.graphs import FanGraph
from repro.histories.operations import History, OpKind


class CommittedAccesses(NamedTuple):
    """What the committed projection did, grouped the way the MVSG rule reads it."""

    #: Transactions with a commit operation.
    committed: set[int]
    #: object -> its committed writers in history order; an entry (possibly
    #: empty) for every object a committed transaction read or wrote.
    writers: dict[Hashable, list[int]]
    #: object -> writer of the version read (0 for any version <= 0) -> the
    #: committed readers of that version, in history order.
    readers: dict[Hashable, dict[int, list[int]]]


def committed_accesses(history: History) -> CommittedAccesses:
    """One pass over ``history.ops``; no copy of the history is made.

    Raises ValueError if a committed transaction made a single-version read
    (no version recorded: there is no reads-from relation to speak of).
    """
    read, write, commit = OpKind.READ, OpKind.WRITE, OpKind.COMMIT
    committed: set[int] = set()
    reads, writes = [], []
    for op in history.ops:
        kind = op.kind
        if kind is read:
            reads.append(op)
        elif kind is write:
            writes.append(op)
        elif kind is commit:
            committed.add(op.txn)
    writers: dict[Hashable, list[int]] = {}
    for op in writes:
        if op.txn in committed:
            writers.setdefault(op.key, []).append(op.txn)
    readers: dict[Hashable, dict[int, list[int]]] = {}
    for op in reads:
        if op.txn in committed:
            version = op.version
            if version is None:
                raise ValueError(f"{op} is a single-version read; no version recorded")
            by_writer = readers.get(op.key)
            if by_writer is None:
                by_writer = readers[op.key] = {}
                writers.setdefault(op.key, [])
            by_writer.setdefault(version if version > 0 else 0, []).append(op.txn)
    return CommittedAccesses(committed, writers, readers)


def order_by_number(accesses: CommittedAccesses) -> dict[Hashable, list[int]]:
    """:func:`version_order_by_number` of the history ``accesses`` was read off."""
    return {key: sorted({0, *txns}) for key, txns in accesses.writers.items()}


def version_order_by_number(history: History) -> dict[Hashable, list[int]]:
    """The paper's version order: versions of x ordered by version number.

    Version numbers equal creator transaction numbers, so this returns, for
    each key, the committed writers sorted ascending.  The notional initial
    transaction 0 is included as the first writer of *every* key that appears
    in the history: every object has an initial version, and omitting it
    would drop the version-order edges that pin readers of initial versions
    before later writers.
    """
    return order_by_number(committed_accesses(history))


def mvsg_of_accesses(
    accesses: CommittedAccesses,
    version_order: dict[Hashable, list[int]] | None = None,
) -> FanGraph:
    """:func:`multiversion_serialization_graph` from a pass already made, for
    a caller that builds several graphs off one pass or wants its committed
    set as well."""
    if version_order is None:
        version_order = order_by_number(accesses)
    committed = accesses.committed
    graph = FanGraph()
    for txn in sorted(committed):
        graph.add_node(txn)
    add_edge = graph.add_edge
    # Objects are numbered in history order, so junction names -- and with
    # them the cycle a search reports -- do not depend on how strings hash.
    for obj, (key, readers_of) in enumerate(accesses.readers.items()):
        # SG edges: in an MV history the only direct conflicts are reads-from
        # (w_i[x_i] precedes r_j[x_i]); w-w on different versions do not conflict.
        for writer, readers in readers_of.items():
            for reader in readers:
                edge = sg_edge(reader, writer, committed)
                if edge is not None:
                    add_edge(edge[0], edge[1])
        for src, dst, _kind in fan_version_order_edges(
            obj, version_order.get(key, ()), readers_of
        ):
            add_edge(src, dst)
    return graph


def multiversion_serialization_graph(
    history: History,
    version_order: dict[Hashable, list[int]] | None = None,
) -> FanGraph:
    """Build MVSG(H) over the committed projection.

    Args:
        history: a multiversion history (reads carry version subscripts);
            projecting is the builder's business, pass it whole.
        version_order: per-key total order over writers; defaults to the
            version-number order (:func:`version_order_by_number`).
    """
    return mvsg_of_accesses(committed_accesses(history), version_order)


def is_one_copy_serializable(
    history: History,
    version_order: dict[Hashable, list[int]] | None = None,
) -> bool:
    """True iff MVSG(H) under the given (default: version-number) order is acyclic."""
    return multiversion_serialization_graph(history, version_order).is_acyclic()


def one_copy_serial_order(
    history: History,
    version_order: dict[Hashable, list[int]] | None = None,
) -> list[int]:
    """A witness one-copy serial order; raises ValueError if cyclic."""
    graph = multiversion_serialization_graph(history, version_order)
    return graph.topological_order(tie_break=lambda t: t)
