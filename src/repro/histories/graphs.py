"""Directed-graph utilities: cycle detection and topological witness orders.

The serializability theory needs exactly two graph questions answered: is the
graph acyclic, and if so what is one topological order (the witness serial
order)?  We implement both with an iterative three-color DFS so deep graphs
cannot hit Python's recursion limit; tests cross-check against ``networkx``.
"""

from __future__ import annotations

from typing import Hashable, Iterable


class Digraph:
    """Minimal adjacency-set directed graph over hashable nodes."""

    def __init__(self) -> None:
        self._succ: dict[Hashable, set[Hashable]] = {}

    def add_node(self, node: Hashable) -> None:
        self._succ.setdefault(node, set())

    def add_edge(self, src: Hashable, dst: Hashable) -> None:
        self.add_node(src)
        self.add_node(dst)
        # A self-loop is kept: it is an immediate cycle.
        self._succ[src].add(dst)

    def nodes(self) -> list[Hashable]:
        return list(self._succ)

    def edges(self) -> list[tuple[Hashable, Hashable]]:
        return [(u, v) for u, vs in self._succ.items() for v in vs]

    def edge_count(self) -> int:
        return sum(len(vs) for vs in self._succ.values())

    def successors(self, node: Hashable) -> set[Hashable]:
        return self._succ.get(node, set())

    def has_edge(self, src: Hashable, dst: Hashable) -> bool:
        return dst in self._succ.get(src, ())

    def __contains__(self, node: Hashable) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    # -- cycle detection ---------------------------------------------------------

    def find_cycle(self) -> list[Hashable] | None:
        """Return one cycle as a node list ``[v0, v1, ..., v0]``, or None.

        Iterative three-color DFS: white (unvisited), gray (on stack), black
        (done).  When an edge reaches a gray node, the stack slice from that
        node is a cycle.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color: dict[Hashable, int] = {node: WHITE for node in self._succ}
        for start in self._succ:
            if color[start] is not WHITE:
                continue
            # Each stack frame: (node, iterator over successors).
            path: list[Hashable] = []
            stack: list[tuple[Hashable, Iterable]] = [(start, iter(self._succ[start]))]
            color[start] = GRAY
            path.append(start)
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if color[succ] is GRAY:
                        # Found a back edge: cycle = path from succ to node.
                        idx = path.index(succ)
                        return path[idx:] + [succ]
                    if color[succ] is WHITE:
                        color[succ] = GRAY
                        path.append(succ)
                        stack.append((succ, iter(self._succ[succ])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    path.pop()
                    stack.pop()
        return None

    def is_acyclic(self) -> bool:
        return self.find_cycle() is None

    # -- topological order ----------------------------------------------------------

    def topological_order(self, tie_break=None) -> list[Hashable]:
        """Kahn's algorithm; raises ValueError if the graph has a cycle.

        Args:
            tie_break: optional key function choosing among ready nodes, so a
                deterministic witness order can be produced (e.g. smallest
                transaction number first).
        """
        indegree: dict[Hashable, int] = {node: 0 for node in self._succ}
        for successors in self._succ.values():
            for dst in successors:
                indegree[dst] += 1
        ready = [node for node, deg in indegree.items() if deg == 0]
        order: list[Hashable] = []
        while ready:
            if tie_break is not None:
                ready.sort(key=tie_break, reverse=True)
            node = ready.pop()
            order.append(node)
            for succ in self._succ[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._succ):
            cycle = self.find_cycle()
            raise ValueError(f"graph has a cycle: {cycle}")
        return order
