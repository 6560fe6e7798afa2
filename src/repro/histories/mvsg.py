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
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable

from repro.histories.derive import sg_edge, version_order_edges
from repro.histories.graphs import Digraph
from repro.histories.operations import History, OpKind


def version_order_by_number(history: History) -> dict[Hashable, list[int]]:
    """The paper's version order: versions of x ordered by version number.

    Version numbers equal creator transaction numbers, so this returns, for
    each key, the committed writers sorted ascending.  The notional initial
    transaction 0 is included as the first writer of *every* key that appears
    in the history: every object has an initial version, and omitting it
    would drop the version-order edges that pin readers of initial versions
    before later writers.
    """
    committed = history.committed()
    writers: dict[Hashable, set[int]] = defaultdict(set)
    for op in history.ops:
        if op.key is None or op.txn not in committed:
            continue
        writers[op.key].add(0)
        if op.kind is OpKind.WRITE:
            writers[op.key].add(op.txn)
    return {key: sorted(txns) for key, txns in writers.items()}


def multiversion_serialization_graph(
    history: History,
    version_order: dict[Hashable, list[int]] | None = None,
) -> Digraph:
    """Build MVSG(H) over the committed projection.

    Args:
        history: a multiversion history (reads carry version subscripts).
        version_order: per-key total order over writers; defaults to the
            version-number order (:func:`version_order_by_number`).
    """
    projected = history.committed_projection()
    if version_order is None:
        version_order = version_order_by_number(projected)
    committed = projected.transactions()

    graph = Digraph()
    for txn in committed:
        graph.add_node(txn)

    # Positions of each writer in each key's version order, for O(1) compare.
    position: dict[Hashable, dict[int, int]] = {
        key: {txn: idx for idx, txn in enumerate(order)}
        for key, order in version_order.items()
    }

    reads_from = projected.reads_from()

    # SG edges: in an MV history the only direct conflicts are reads-from
    # (w_i[x_i] precedes r_j[x_i]); w-w on different versions do not conflict.
    # Both rule sets live in repro.histories.derive, shared with the online
    # witness (repro.obs.witness) so the two checkers cannot drift apart.
    for reader, writer, _key in reads_from:
        edge = sg_edge(reader, writer, committed)
        if edge is not None:
            graph.add_edge(edge[0], edge[1])

    # Version order edges.
    for reader, writer, key in reads_from:
        order_pos = position.get(key, {})
        if writer not in order_pos:
            # Writer absent from the version order (aborted, or an implicit
            # initial version the supplied order omits): no version-order
            # edges can be derived from this read.
            continue
        for src, dst, _kind in version_order_edges(
            reader,
            writer,
            version_order.get(key, ()),
            lambda a, b, pos=order_pos: pos[a] < pos[b],
        ):
            graph.add_edge(src, dst)
    return graph


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
