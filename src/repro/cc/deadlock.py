"""Waits-for graph maintenance and deadlock victim selection.

The lock manager records an edge ``A -> B`` whenever transaction A starts
waiting for a lock B holds (or for a request queued ahead of A that is
incompatible with A's).  A waits on B once however many reasons it has
(multiple holders, holder plus queued upgrade), and its edges leave together
when it stops waiting.

Detection runs on every new wait (continuous detection); a found cycle
selects a victim by policy:

* ``"requester"`` — abort the transaction whose request closed the cycle
  (self-victimization; cheapest bookkeeping, used as the default);
* ``"youngest"`` — abort the most recently started transaction in the cycle
  (minimizes lost work);
* ``"oldest"`` — abort the longest-running transaction in the cycle.

The paper's relevant observation (Section 4.4) is orthogonal to policy:
transactions that have *registered with version control* are past their lock
point, hold no pending requests, and therefore can never appear in a cycle —
tests assert exactly this.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

from repro.histories.graphs import Digraph
from repro.obs.tracer import NULL_TRACER

VictimPolicy = str  # "requester" | "youngest" | "oldest"

_POLICIES = ("requester", "youngest", "oldest")


class WaitsForGraph:
    """Directed waits-for graph over transaction ids."""

    def __init__(self) -> None:
        #: Edges in the order they were first added (detection walks them).
        self._edges: dict[tuple[int, int], None] = {}
        self._succ: dict[int, set[int]] = defaultdict(set)
        #: Structured-event tracer (deadlock.detect on every found cycle).
        #: One graph may serve several lock managers (distributed sites), so
        #: the graph carries its own tracer rather than borrowing a manager's.
        self.tracer = NULL_TRACER
        #: Cycle-detection passes run (cost proxy for continuous detection).
        self.detections = 0

    def add(self, waiter: int, holder: int) -> None:
        if waiter == holder:
            return
        self._edges[(waiter, holder)] = None
        self._succ[waiter].add(holder)

    def remove_waiter(self, waiter: int) -> None:
        """Drop every outgoing edge of ``waiter`` (it stopped waiting)."""
        for holder in self._succ.pop(waiter, ()):
            del self._edges[(waiter, holder)]

    def edges(self) -> list[tuple[int, int]]:
        return list(self._edges)

    def waiters(self) -> set[int]:
        return set(self._succ)

    def is_waiting(self, txn_id: int) -> bool:
        return txn_id in self._succ

    def find_cycle(self) -> list[int] | None:
        """A cycle ``[v0, ..., v0]`` if one exists, else None."""
        self.detections += 1
        graph = Digraph()
        for (waiter, holder) in self._edges:
            graph.add_edge(waiter, holder)
        cycle = graph.find_cycle()
        if cycle is not None and self.tracer.enabled:
            self.tracer.emit(
                "deadlock.detect", cycle=list(cycle), edges=len(self._edges)
            )
        return cycle


def choose_victim(
    cycle: list[int],
    policy: VictimPolicy,
    requester: int,
    age_key: Callable[[int], int] = lambda txn_id: txn_id,
) -> int:
    """Pick the transaction to abort from ``cycle`` (first == last node).

    ``age_key`` maps a transaction id to its begin order (larger == younger);
    the default assumes ids are assigned in begin order, which holds for
    :class:`~repro.core.transaction.Transaction`.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown victim policy {policy!r}; expected one of {_POLICIES}")
    members = set(cycle)
    if policy == "requester":
        # The requester is always in the cycle it just closed; fall back to
        # youngest if detection ran in a context without a requester.
        if requester in members:
            return requester
        policy = "youngest"
    if policy == "youngest":
        return max(members, key=age_key)
    return min(members, key=age_key)
