"""Directed-graph utilities: cycle detection and topological witness orders.

The serializability theory needs exactly two graph questions answered: is the
graph acyclic, and if so what is one topological order (the witness serial
order)?  Cycles are found with an iterative three-color DFS so deep graphs
cannot hit Python's recursion limit, orders with Kahn's algorithm over a heap;
tests cross-check against ``networkx``.

:class:`FanGraph` is the same two questions over a graph *stored* in fewer
edges than it has: "every member of this set precedes that node" is one edge
through a junction (a :class:`Fan`) instead of one edge per member.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Hashable, Iterable


class CycleError(ValueError):
    """No topological order exists; ``cycle`` is one reason why."""

    def __init__(self, cycle: list[Hashable]):
        self.cycle = cycle
        super().__init__(f"graph has a cycle: {cycle}")


class Digraph:
    """Minimal adjacency-set directed graph over hashable nodes."""

    def __init__(self) -> None:
        self._succ: dict[Hashable, set[Hashable]] = {}

    def add_node(self, node: Hashable) -> None:
        self._succ.setdefault(node, set())

    def add_edge(self, src: Hashable, dst: Hashable) -> None:
        succ = self._succ
        targets = succ.get(src)
        if targets is None:
            targets = succ[src] = set()
        if dst not in succ:
            succ[dst] = set()
        # A self-loop is kept: it is an immediate cycle.
        targets.add(dst)

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

    #: Node types :meth:`topological_order` passes through without listing
    #: them (none here; :class:`FanGraph` names its junctions).
    _junctions: tuple[type, ...] = ()

    def topological_order(
        self, tie_break: Callable[[Hashable], object] | None = None
    ) -> list[Hashable]:
        """Kahn's algorithm; raises :class:`CycleError` if the graph has a cycle.

        Args:
            tie_break: optional key function choosing among ready nodes (the
                smallest key goes first, called once per node), so a
                deterministic witness order can be produced (e.g. smallest
                transaction number first).  Without it ready nodes go out
                first come, first served.
        """
        key = tie_break or (lambda node: 0)
        succ, junctions = self._succ, self._junctions
        indegree = dict.fromkeys(succ, 0)
        for successors in succ.values():
            for dst in successors:
                indegree[dst] += 1
        # A ready junction goes out ahead of every ready node, so a node is
        # ready exactly when every node that reaches it through junctions is out.
        passing: list[Hashable] = []
        # Heap entries are (key, arrival, node): arrival keeps equal keys from
        # ever comparing the nodes themselves.
        ready: list[tuple] = []
        arrival = 0
        order: list[Hashable] = []
        passed = 0
        released = [node for node, degree in indegree.items() if not degree]
        while True:
            for node in released:
                if isinstance(node, junctions):
                    passing.append(node)
                else:
                    arrival += 1
                    heappush(ready, (key(node), arrival, node))
            if passing:
                node = passing.pop()
                passed += 1
            elif ready:
                node = heappop(ready)[2]
                order.append(node)
            else:
                break
            released = []
            for dst in succ[node]:
                waiting = indegree[dst] = indegree[dst] - 1
                if not waiting:
                    released.append(dst)
        if len(order) + passed != len(succ):
            raise CycleError(self.find_cycle())
        return order


class Fan(tuple):
    """A junction of a :class:`FanGraph`: a node that stands for a set of
    edges and is not a node of the graph the object means.  A tuple of ints,
    so that it hashes the same in every process."""

    __slots__ = ()


class FanGraph(Digraph):
    """A digraph stored with :class:`Fan` junctions, read as the graph without them.

    It *means* the graph over its non-fan nodes with an edge ``u -> v``
    wherever ``u -> v`` is stored or a path ``u -> fan -> ... -> fan -> v``
    is.  Every method speaks of that graph and never shows a fan; only
    :meth:`edge_count` counts what is stored.  :meth:`topological_order`
    passes fans through the moment they are ready, so its order under a
    ``tie_break`` is the one the expanded graph would give.  Whoever adds the
    edges owes the proof that fan paths spell exactly the edges intended (for
    the MVSG: :func:`repro.histories.derive.fan_version_order_edges`).
    """

    _junctions = (Fan,)

    def nodes(self) -> list[Hashable]:
        return [node for node in self._succ if type(node) is not Fan]

    def edges(self) -> list[tuple[Hashable, Hashable]]:
        return [(u, v) for u in self.nodes() for v in self.successors(u)]

    def successors(self, node: Hashable) -> set[Hashable]:
        found: set[Hashable] = set()
        fans: set[Hashable] = set()
        frontier = list(self._succ.get(node, ()))
        while frontier:
            reached = frontier.pop()
            if type(reached) is not Fan:
                found.add(reached)
            elif reached not in fans:
                fans.add(reached)
                frontier.extend(self._succ[reached])
        return found

    def has_edge(self, src: Hashable, dst: Hashable) -> bool:
        return dst in self.successors(src)

    def __contains__(self, node: Hashable) -> bool:
        return type(node) is not Fan and node in self._succ

    def __len__(self) -> int:
        return len(self.nodes())

    def find_cycle(self) -> list[Hashable] | None:
        """A cycle of the stored graph, fans dropped: a path through fans is
        an edge, so what is left is a cycle of the graph meant."""
        cycle = super().find_cycle()
        if cycle is None:
            return None
        members = [node for node in cycle[:-1] if type(node) is not Fan]
        return members + members[:1]
