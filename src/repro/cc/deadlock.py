"""Waits-for graph maintenance and deadlock victim selection.

The lock manager records an edge ``A -> B`` whenever transaction A starts
waiting for a lock B holds (or for a request queued ahead of A that is
incompatible with A's).  A waits on B once however many reasons it has
(multiple holders, holder plus queued upgrade), and its edges leave together
when it stops waiting.

Detection runs on every new wait (continuous detection) and starts at the
requester.  The graph remembers the waiters that gained an edge since it was
last found acyclic, and every cycle leaves one of them; so while the
requester is the only one of them still waiting, a cycle exists exactly when
a walk from the requester comes back to it.  Only then, or when another of
them still waits, does the full search run — the one that picks the cycle
reported, as it always has.  A found cycle selects a victim by policy:

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

VICTIM_POLICIES = ("requester", "youngest", "oldest")

_NO_EDGES: frozenset[int] = frozenset()


class WaitsForGraph:
    """Directed waits-for graph over transaction ids.

    Detection from a requester is exact by one invariant: *every cycle
    leaves a waiter in* ``_unsearched``.  Adding an edge puts its waiter
    there; removing edges cannot close a cycle; :meth:`rewire` puts its
    waiter there only when the new edges are not a subset of the old (a
    rebuild after a grant can point a waiter at a holder that converted in
    place, or at a conversion queued ahead of it, or at a transaction that a
    grant callback made wait).  A search that finds no cycle empties the set.
    So if no member other than the requester still waits, every cycle runs
    through the requester.  That covers, with no case of its own, the cycle a
    ``youngest``/``oldest`` eviction leaves through the requester (it stays
    in the set), a shared graph (the set is the graph's) and a request made
    from inside a lock callback (its edges are in the set too).
    """

    def __init__(self) -> None:
        #: Edges in the order they were first added (detection walks them).
        self._edges: dict[tuple[int, int], None] = {}
        self._succ: dict[int, set[int]] = defaultdict(set)
        #: Waiters that gained an edge since the graph was last found acyclic.
        self._unsearched: set[int] = set()
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
        self._unsearched.add(waiter)

    def rewire(self, waiter: int, holders: list[int]) -> None:
        """Replace ``waiter``'s out-edges with edges to ``holders``: its old
        edges leave the order, the new ones join it at the end."""
        old = self._succ.pop(waiter, _NO_EDGES)
        for holder in old:
            del self._edges[(waiter, holder)]
        new = set()
        for holder in holders:
            if holder != waiter:
                self._edges[(waiter, holder)] = None
                new.add(holder)
        if new:
            self._succ[waiter] = new
            if not new <= old:
                self._unsearched.add(waiter)

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

    def find_cycle(self, requester: int | None = None) -> list[int] | None:
        """A cycle ``[v0, ..., v0]`` if one exists, else None.

        With a ``requester`` whose edges are the only unsearched ones still
        waiting, a walk from it decides; the full search runs only to report
        a cycle it found, so the cycle reported is the one it always was.
        """
        self.detections += 1
        if requester is not None and not self._returns_to(requester):
            self._unsearched.clear()  # no cycle anywhere
            return None
        graph = Digraph()
        for (waiter, holder) in self._edges:
            graph.add_edge(waiter, holder)
        cycle = graph.find_cycle()
        if cycle is None:
            self._unsearched.clear()
        elif self.tracer.enabled:
            self.tracer.emit("deadlock.detect", list(cycle), len(self._edges))
        return cycle

    def _returns_to(self, requester: int) -> bool:
        """False only when the graph certainly has no cycle: every
        unsearched waiter but the requester waits no more, and no path from
        the requester leads back to it."""
        succ = self._succ
        for waiter in self._unsearched:
            if waiter != requester and waiter in succ:
                return True
        seen = set()
        stack = list(succ.get(requester, ()))
        while stack:
            node = stack.pop()
            if node == requester:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(succ.get(node, ()))
        return False


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
    if policy not in VICTIM_POLICIES:
        raise ValueError(
            f"unknown victim policy {policy!r}; expected one of {VICTIM_POLICIES}"
        )
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
