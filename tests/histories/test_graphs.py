"""Tests for the digraph utilities, cross-checked against networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histories.graphs import CycleError, Digraph, Fan, FanGraph


def build(edges, nodes=()):
    g = Digraph()
    for n in nodes:
        g.add_node(n)
    for u, v in edges:
        g.add_edge(u, v)
    return g


class TestBasics:
    def test_nodes_and_edges(self):
        g = build([(1, 2), (2, 3)], nodes=[4])
        assert set(g.nodes()) == {1, 2, 3, 4}
        assert set(g.edges()) == {(1, 2), (2, 3)}
        assert g.edge_count() == 2
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)
        assert 4 in g
        assert len(g) == 4

    def test_successors(self):
        g = build([(1, 2), (1, 3)])
        assert g.successors(1) == {2, 3}


class TestCycles:
    def test_acyclic_graph(self):
        g = build([(1, 2), (2, 3), (1, 3)])
        assert g.is_acyclic()
        assert g.find_cycle() is None

    def test_simple_cycle_found(self):
        g = build([(1, 2), (2, 1)])
        cycle = g.find_cycle()
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {1, 2}

    def test_self_loop_is_cycle(self):
        g = build([(1, 1)])
        assert not g.is_acyclic()

    def test_long_cycle(self):
        n = 500
        g = build([(i, i + 1) for i in range(n)] + [(n, 0)])
        cycle = g.find_cycle()
        assert cycle is not None
        assert len(set(cycle)) == n + 1

    def test_deep_chain_no_recursion_error(self):
        n = 5000
        g = build([(i, i + 1) for i in range(n)])
        assert g.is_acyclic()

    def test_cycle_in_disconnected_component(self):
        g = build([(1, 2), (10, 11), (11, 12), (12, 10)])
        cycle = g.find_cycle()
        assert set(cycle) == {10, 11, 12}


class TestTopologicalOrder:
    def test_respects_edges(self):
        g = build([(3, 1), (1, 2)])
        order = g.topological_order()
        assert order.index(3) < order.index(1) < order.index(2)

    def test_tie_break_deterministic(self):
        g = build([], nodes=[5, 3, 1, 4])
        assert g.topological_order(tie_break=lambda n: n) == [1, 3, 4, 5]

    def test_cycle_raises(self):
        g = build([(1, 2), (2, 1)])
        with pytest.raises(ValueError, match="cycle"):
            g.topological_order()
        with pytest.raises(CycleError) as caught:
            g.topological_order()
        assert caught.value.cycle in ([1, 2, 1], [2, 1, 2])

    def test_tie_break_is_called_once_per_node(self):
        # A heap, not a re-sort of the ready list per node taken (which on
        # this antichain called the key n(n+1)/2 = 4 501 500 times).
        n = 3_000
        g = build([], nodes=range(n, 0, -1))
        calls = []

        def key(node):
            calls.append(node)
            return node

        assert g.topological_order(tie_break=key) == list(range(1, n + 1))
        assert len(calls) <= 2 * n

    def test_equal_keys_never_compare_the_nodes(self):
        g = build([], nodes=[object(), object(), object()])
        assert len(g.topological_order(tie_break=lambda n: 0)) == 3


@settings(max_examples=200, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60
    )
)
def test_property_acyclicity_matches_networkx(edges):
    ours = build(edges)
    theirs = nx.DiGraph()
    theirs.add_nodes_from(ours.nodes())
    theirs.add_edges_from(edges)
    assert ours.is_acyclic() == nx.is_directed_acyclic_graph(theirs)
    assert ours.edge_count() == len(ours.edges()) == theirs.number_of_edges()


@settings(max_examples=100, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40
    )
)
def test_property_topological_order_is_valid(edges):
    ours = build(edges)
    if not ours.is_acyclic():
        return
    order = ours.topological_order()
    pos = {n: i for i, n in enumerate(order)}
    assert len(order) == len(ours)
    for u, v in ours.edges():
        assert pos[u] < pos[v]


# -- FanGraph: stored with junctions, read without them ---------------------------

@st.composite
def fan_graph_edges(draw):
    """Edges over plain nodes 0..7 and fans 8..13; fan-to-fan edges only
    ascend, so no cycle runs through fans alone."""
    edges = draw(
        st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=40)
    )
    return [(u, v) for u, v in edges if not (u >= 8 and v >= 8 and u >= v)]


@settings(max_examples=300, deadline=None)
@given(edges=fan_graph_edges())
def test_property_fan_graph_reads_as_its_expansion(edges):
    def name(n):
        return Fan((n,)) if n >= 8 else n

    stored = FanGraph()
    plain = Digraph()  # the same edges with plain nodes, to expand by hand
    for u, v in edges:
        stored.add_edge(name(u), name(v))
        plain.add_edge(u, v)
    meant = Digraph()
    for u in plain.nodes():
        if u >= 8:
            continue
        meant.add_node(u)
        frontier, seen = [u], set()
        while frontier:
            for v in plain.successors(frontier.pop()):
                if v < 8:
                    meant.add_edge(u, v)
                elif v not in seen:
                    seen.add(v)
                    frontier.append(v)
    assert sorted(stored.nodes()) == sorted(meant.nodes())
    assert len(stored) == len(meant)
    assert sorted(stored.edges()) == sorted(meant.edges())
    assert stored.edge_count() == plain.edge_count()
    for u in meant.nodes():
        assert u in stored and stored.successors(u) == meant.successors(u)
        assert all(stored.has_edge(u, v) == meant.has_edge(u, v) for v in range(8))
    assert not any(Fan((n,)) in stored for n in range(8, 14))
    cycle = stored.find_cycle()
    assert (cycle is None) == meant.is_acyclic()
    if cycle is None:
        assert stored.topological_order(tie_break=lambda n: n) == (
            meant.topological_order(tie_break=lambda n: n)
        )
        assert stored.topological_order(tie_break=lambda n: -n) == (
            meant.topological_order(tie_break=lambda n: -n)
        )
    else:
        assert cycle[0] == cycle[-1] and len(cycle) >= 2
        assert all(meant.has_edge(u, v) for u, v in zip(cycle, cycle[1:]))
        with pytest.raises(CycleError):
            stored.topological_order()
