"""Single-version serialization graphs — SG(H) of paper Section 3.1.

``SG(H)`` has a node per committed transaction and an edge ``Ti -> Tj``
whenever an operation of Ti precedes and conflicts with an operation of Tj.
A single-version history is conflict-serializable iff SG(H) is acyclic.
"""

from __future__ import annotations

from collections import defaultdict

from repro.histories.graphs import Digraph
from repro.histories.operations import History, OpKind


def serialization_graph(history: History) -> Digraph:
    """Build SG(H) over the committed projection of ``history``.

    Works for single-version histories (version field ignored): conflicts are
    (r,w), (w,r) and (w,w) pairs on the same key from distinct transactions.
    """
    projected = history.committed_projection()
    graph = Digraph()
    for txn in projected.transactions():
        graph.add_node(txn)
    # Scan per key, keeping the access lists in order.
    per_key: dict[object, list] = defaultdict(list)
    for op in projected.ops:
        if op.kind in (OpKind.READ, OpKind.WRITE):
            per_key[op.key].append(op)
    for ops in per_key.values():
        for i, earlier in enumerate(ops):
            for later in ops[i + 1 :]:
                if earlier.conflicts_with(later):
                    graph.add_edge(earlier.txn, later.txn)
    return graph


def is_conflict_serializable(history: History) -> bool:
    """True iff the committed projection of ``history`` is conflict-serializable."""
    return serialization_graph(history).is_acyclic()
