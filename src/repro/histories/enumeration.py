"""Brute-force one-copy serializability for tiny histories.

Used only as a cross-check oracle for the MVSG-based checker: enumerate every
serial order of the committed transactions, execute it over a single-version
database, and test whether the reads-from relation matches the multiversion
history's.  Exponential in the number of transactions — tests cap it at ~8.

Equivalence note: the paper (after [6]) defines two MV histories as
equivalent when they have the same operations, and defines 1SR as equivalence
to a serial single-version history.  Matching the reads-from relation between
the MV history and the candidate serial single-version execution is the
operative condition (final writes need no separate check in the MV setting
because every write creates a distinct entity; the serial execution writes
the same set of versions regardless of order).
"""

from __future__ import annotations

from itertools import permutations
from typing import Hashable, Iterable

from repro.histories.operations import History, OpKind


def _serial_reads_from(
    order: Iterable[int], history: History
) -> set[tuple[int, int, Hashable]]:
    """Reads-from produced by executing committed txns serially in ``order``.

    The single-version database starts with every key holding the initial
    version, attributed to the notional transaction 0.
    """
    last_writer: dict[Hashable, int] = {}
    relation: set[tuple[int, int, Hashable]] = set()
    ops_by_txn = {txn: history.operations_of(txn) for txn in history.transactions()}
    for txn in order:
        for op in ops_by_txn[txn]:
            if op.kind is OpKind.READ:
                relation.add((txn, last_writer.get(op.key, 0), op.key))
            elif op.kind is OpKind.WRITE:
                last_writer[op.key] = txn
    return relation


def brute_force_one_copy_serializable(
    history: History, max_transactions: int = 9
) -> bool:
    """Exhaustively decide 1SR by trying all serial orders.

    Raises ValueError when the committed projection has more transactions
    than ``max_transactions`` (factorial blow-up guard).
    """
    projected = history.committed_projection()
    txns = sorted(projected.transactions())
    if len(txns) > max_transactions:
        raise ValueError(
            f"{len(txns)} committed transactions exceed the brute-force cap "
            f"of {max_transactions}"
        )
    target = projected.reads_from()
    return any(
        _serial_reads_from(order, projected) == target for order in permutations(txns)
    )


def exists_acyclic_version_order(history: History, max_orders: int = 100_000) -> bool:
    """Decide 1SR via the full Bernstein–Goodman characterization.

    A multiversion history is one-copy serializable iff *some* per-key total
    version order makes MVSG(H, <<) acyclic.  The scheduler-facing checker
    fixes << to the version-number order (sufficient for every protocol in
    this library, per the paper's Theorem 1); this function searches all
    orders and is therefore exact — and exponential.  Used as a test oracle.

    Raises ValueError when the search space exceeds ``max_orders``.
    """
    from math import factorial

    from repro.histories.mvsg import (
        committed_accesses,
        mvsg_of_accesses,
        order_by_number,
    )

    # One pass over the history serves every candidate order.
    accesses = committed_accesses(history)
    base = order_by_number(accesses)
    # The initial version of each object is first in every candidate order,
    # matching the brute-force oracle's fixed initial database state.
    movable = {key: [w for w in writers if w != 0] for key, writers in base.items()}
    space = 1
    for writers in movable.values():
        space *= factorial(len(writers))
    if space > max_orders:
        raise ValueError(f"{space} candidate version orders exceed cap {max_orders}")

    keys = list(base)

    def search(idx: int, chosen: dict) -> bool:
        if idx == len(keys):
            return mvsg_of_accesses(accesses, chosen).is_acyclic()
        key = keys[idx]
        for order in permutations(movable[key]):
            chosen[key] = [0, *order]
            if search(idx + 1, chosen):
                return True
        return False

    return search(0, {})


def witness_serial_orders(history: History, limit: int = 10) -> list[tuple[int, ...]]:
    """All (up to ``limit``) serial orders equivalent to the history."""
    projected = history.committed_projection()
    txns = sorted(projected.transactions())
    target = projected.reads_from()
    found: list[tuple[int, ...]] = []
    for order in permutations(txns):
        if _serial_reads_from(order, projected) == target:
            found.append(order)
            if len(found) >= limit:
                break
    return found
