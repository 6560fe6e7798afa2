"""Incremental topological order with online cycle detection (Pearce–Kelly).

The streaming witness adds MVSG edges one at a time and must answer "still
acyclic?" after every insertion without re-walking the whole graph.  The
Pearce–Kelly algorithm maintains a topological numbering and, on inserting
``u -> v``, does work only when the numbering is violated (``ord[v] <=
ord[u]``): a forward search from ``v`` bounded above by ``ord[u]`` and a
backward search from ``u`` bounded below by ``ord[v]``, then a local
renumbering of just the affected region.  Edges that already respect the
order — the overwhelming majority in a mostly-serializable stream — cost
one dict lookup.

When the forward search reaches ``u`` the new edge closes a cycle: the
insertion is REFUSED (the structure stays acyclic so certification can
continue past the violation) and the cycle is returned as a node list
``[u, v, ..., u]`` whose consecutive pairs are real edges (the first being
the refused edge itself, which *is* an MVSG edge — it just is not stored).

Sealing support: the witness folds away finished prefixes by removing
*source* nodes (no incoming edges); :meth:`IncrementalTopology.remove_source`
unlinks one in O(out-degree).
"""

from __future__ import annotations


class IncrementalTopology:
    """A DAG under incremental edge insertion, Pearce–Kelly style."""

    def __init__(self) -> None:
        self._ord: dict[int, int] = {}
        self._succ: dict[int, set[int]] = {}
        self._pred: dict[int, set[int]] = {}
        self._next_index = 0
        #: Distinct edges currently stored (removals subtract).
        self.edges = 0
        #: Total distinct edges ever inserted (sealing never subtracts).
        self.edges_added = 0

    # -- nodes ---------------------------------------------------------------

    def add_node(self, node: int) -> None:
        if node not in self._ord:
            self._ord[node] = self._next_index
            self._next_index += 1
            self._succ[node] = set()
            self._pred[node] = set()

    def __contains__(self, node: int) -> bool:
        return node in self._ord

    def indegree(self, node: int) -> int:
        return len(self._pred[node])

    def successors(self, node: int) -> set[int]:
        return set(self._succ.get(node, ()))

    def predecessors(self, node: int) -> set[int]:
        return set(self._pred.get(node, ()))

    def remove_source(self, node: int) -> None:
        """Unlink a node with no incoming edges (the sealing operation)."""
        if self._pred[node]:
            raise ValueError(f"node {node} has predecessors; not a source")
        for succ in self._succ[node]:
            self._pred[succ].discard(node)
        self.edges -= len(self._succ[node])
        del self._succ[node]
        del self._pred[node]
        del self._ord[node]

    def remove_node(self, node: int) -> None:
        """Unlink a node outright, incident edges included (the fail-over
        rebase: a lost commit leaves the surviving timeline entirely, so
        unlike sealing this removes *incoming* edges too)."""
        for succ in self._succ[node]:
            self._pred[succ].discard(node)
        for pred in self._pred[node]:
            self._succ[pred].discard(node)
        self.edges -= len(self._succ[node]) + len(self._pred[node])
        del self._succ[node]
        del self._pred[node]
        del self._ord[node]

    # -- edges ---------------------------------------------------------------

    def add_edge(self, u: int, v: int) -> list[int] | None:
        """Insert ``u -> v``; return the closed cycle instead of inserting.

        Returns None on success (including duplicate edges, which are
        no-ops).  On a cycle, returns ``[u, v, ..., u]`` and leaves the
        structure unchanged — the caller records the violation and keeps
        certifying.
        """
        if u == v:
            return [u, u]
        self.add_node(u)
        self.add_node(v)
        if v in self._succ[u]:
            return None
        lower = self._ord[v]
        upper = self._ord[u]
        if lower > upper:
            self._insert(u, v)
            return None
        # Discovery: forward from v (indices < upper), backward from u
        # (indices > lower).  Nodes outside the (lower, upper) window cannot
        # participate — paths strictly increase the ordering.
        parent: dict[int, int] = {}
        forward = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for w in self._succ[x]:
                if w == u:
                    # Cycle u -> v -> ... -> x -> u; walk parents back to v.
                    path = [x]
                    while path[-1] != v:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return [u, *path, u]
                if w not in forward and self._ord[w] < upper:
                    forward.add(w)
                    parent[w] = x
                    stack.append(w)
        backward = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for w in self._pred[x]:
                if w not in backward and self._ord[w] > lower:
                    backward.add(w)
                    stack.append(w)
        # Reorder the affected region: everything reaching u keeps relative
        # order and moves before everything reachable from v (also in
        # relative order), reusing the same pool of indices.
        ordkey = self._ord.__getitem__
        affected = sorted(backward, key=ordkey) + sorted(forward, key=ordkey)
        pool = sorted(self._ord[x] for x in affected)
        for node, index in zip(affected, pool):
            self._ord[node] = index
        self._insert(u, v)
        return None

    def _insert(self, u: int, v: int) -> None:
        self._succ[u].add(v)
        self._pred[v].add(u)
        self.edges += 1
        self.edges_added += 1

    # -- order ---------------------------------------------------------------

    def order(self) -> list[int]:
        """Current nodes in topological (certified serialization) order."""
        return sorted(self._ord, key=self._ord.__getitem__)

    def check(self) -> bool:
        """Invariant audit (tests): every edge respects the numbering."""
        return all(
            self._ord[u] < self._ord[v]
            for u, succs in self._succ.items()
            for v in succs
        )
