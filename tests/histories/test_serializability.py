"""Tests for SG(H), MVSG(H), the 1SR checker and the brute-force oracle.

Includes the textbook examples from Bernstein-Hadzilacos-Goodman that the
paper's Section 3 summarizes, plus property-based cross-checks between the
MVSG verdict and exhaustive enumeration.
"""

import hashlib
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.histories import (
    exists_acyclic_version_order,
    Digraph,
    History,
    NotSerializable,
    assert_one_copy_serializable,
    brute_force_one_copy_serializable,
    check_one_copy_serializable,
    is_conflict_serializable,
    is_one_copy_serializable,
    multiversion_serialization_graph,
    one_copy_serial_order,
    serialization_graph,
    version_order_by_number,
    witness_serial_orders,
)
from repro.histories import mvsg
from repro.histories.derive import (
    WW,
    fan_version_order_edges,
    sg_edge,
    version_order_edges,
)
from repro.histories.graphs import Fan


class TestSingleVersionSG:
    def test_serial_history_is_serializable(self):
        h = History.parse("r1[x] w1[x] c1 r2[x] w2[x] c2")
        assert is_conflict_serializable(h)

    def test_classic_nonserializable_interleaving(self):
        # Lost update: r1 r2 w1 w2.
        h = History.parse("r1[x] r2[x] w1[x] c1 w2[x] c2")
        assert not is_conflict_serializable(h)

    def test_aborted_transactions_do_not_count(self):
        h = History.parse("r1[x] r2[x] w1[x] c1 w2[x] a2")
        assert is_conflict_serializable(h)

    def test_sg_edges(self):
        h = History.parse("w1[x] c1 r2[x] c2")
        g = serialization_graph(h)
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)


class TestMVSG:
    def test_serial_mv_history(self):
        h = History.parse("w1[x_1] c1 r2[x_1] w2[y_2] c2")
        assert is_one_copy_serializable(h)

    def test_snapshot_read_of_old_version_is_serializable(self):
        # T3 reads the pre-T2 version of x after T2 committed: legal, T3
        # serializes before T2.
        h = History.parse("w1[x_1] c1 w2[x_2] c2 r3[x_1] c3")
        assert is_one_copy_serializable(h)
        order = one_copy_serial_order(h)
        assert order.index(3) < order.index(2)
        assert order.index(1) < order.index(3)

    def test_inconsistent_mixed_snapshot_rejected(self):
        # T3 reads x before T2's write but y after it: not 1SR.
        h = History.parse(
            "w1[x_1] w1[y_1] c1 w2[x_2] w2[y_2] c2 r3[x_1] r3[y_2] c3"
        )
        assert not is_one_copy_serializable(h)

    def test_write_skew_style_cycle(self):
        # T1 reads x_0 writes y; T2 reads y_0 writes x: each reads the other's
        # overwritten version -> MVSG cycle.
        h = History.parse("r1[x_0] r2[y_0] w1[y_1] w2[x_2] c1 c2")
        assert not is_one_copy_serializable(h)

    def test_initial_versions_attributed_to_t0(self):
        h = History.parse("r1[x_0] c1 w2[x_2] c2")
        g = multiversion_serialization_graph(h)
        assert 0 in g  # T0 participates
        assert is_one_copy_serializable(h)

    def test_version_order_by_number(self):
        h = History.parse("w2[x_2] c2 w1[x_1] c1 r3[x_0] c3")
        order = version_order_by_number(h)
        assert order["x"] == [0, 1, 2]

    def test_reader_of_stale_version_before_later_writer(self):
        # r3[x_1] with x_1 << x_2 forces T3 -> T2.
        h = History.parse("w1[x_1] c1 w2[x_2] c2 r3[x_1] c3")
        g = multiversion_serialization_graph(h)
        assert g.has_edge(3, 2)


class TestChecker:
    def test_report_on_serializable(self):
        h = History.parse("w1[x_1] c1 r2[x_1] c2")
        report = check_one_copy_serializable(h)
        assert report.serializable
        assert report.transactions == 2
        assert report.witness_order.index(1) < report.witness_order.index(2)
        assert report.cycle == []

    def test_report_on_nonserializable_has_cycle(self):
        h = History.parse("r1[x_0] r2[y_0] w1[y_1] w2[x_2] c1 c2")
        report = check_one_copy_serializable(h)
        assert not report.serializable
        assert len(report.cycle) >= 3
        assert report.cycle[0] == report.cycle[-1]

    def test_assert_raises_with_cycle(self):
        h = History.parse("r1[x_0] r2[y_0] w1[y_1] w2[x_2] c1 c2")
        with pytest.raises(NotSerializable, match="MVSG cycle"):
            assert_one_copy_serializable(h)

    def test_assert_returns_report_when_fine(self):
        h = History.parse("w1[x_1] c1")
        assert assert_one_copy_serializable(h).serializable

    def test_one_check_projects_the_history_once(self, monkeypatch):
        # The projection copies the whole history.  A check reads the
        # history where it lies, in one pass over ``ops``: nothing in it may
        # copy the history more than once, and today nothing copies it at all.
        calls = []
        project = History.committed_projection

        def counting_projection(history):
            calls.append(history)
            return project(history)

        class CountedOps(list):
            passes = 0

            def __iter__(self):
                CountedOps.passes += 1
                return super().__iter__()

        monkeypatch.setattr(History, "committed_projection", counting_projection)
        h = History.parse("w1[x_1] c1 r2[x_1] w2[y_2] c2 r3[y_0] a3")
        h.ops = CountedOps(h.ops)
        report = check_one_copy_serializable(h)
        assert len(calls) <= 1
        assert CountedOps.passes == 1
        assert report.transactions == 2
        assert report.witness_order == [0, 1, 2]
        # Stored, not meant: 1 -> 2 (wr), and "every writer of x up to T0
        # precedes T1" as T0 -> junction -> T1.  The graph meant has two edges.
        assert report.edges == 3
        assert sorted(multiversion_serialization_graph(h).edges()) == [(0, 1), (1, 2)]


class TestBruteForce:
    def test_agrees_on_serializable(self):
        h = History.parse("w1[x_1] c1 w2[x_2] c2 r3[x_1] c3")
        assert brute_force_one_copy_serializable(h)

    def test_agrees_on_nonserializable(self):
        h = History.parse(
            "w1[x_1] w1[y_1] c1 w2[x_2] w2[y_2] c2 r3[x_1] r3[y_2] c3"
        )
        assert not brute_force_one_copy_serializable(h)

    def test_witness_orders(self):
        h = History.parse("w1[x_1] c1 r2[x_1] c2")
        orders = witness_serial_orders(h)
        assert (1, 2) in orders

    def test_cap_enforced(self):
        h = History.parse(" ".join(f"w{i}[k{i}_{i}] c{i}" for i in range(1, 12)))
        with pytest.raises(ValueError, match="cap"):
            brute_force_one_copy_serializable(h)


# -- randomized cross-check ----------------------------------------------------

@st.composite
def small_mv_history(draw):
    """Random *plausible* MV histories over <= 5 txns and 3 keys.

    Each transaction reads a random committed-so-far version of some keys and
    writes its own version of others; commit order is the id order.  The
    result is sometimes 1SR and sometimes not — both verdicts must agree
    between the MVSG checker and brute force.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    keys = ["x", "y", "z"]
    written: dict[str, list[int]] = {key: [0] for key in keys}
    ops = []
    for txn in range(1, n + 1):
        for key in keys:
            action = draw(st.sampled_from(["skip", "read", "write", "rw"]))
            if action in ("read", "rw"):
                version = draw(st.sampled_from(written[key]))
                ops.append(f"r{txn}[{key}_{version}]")
            if action in ("write", "rw"):
                ops.append(f"w{txn}[{key}_{txn}]")
                written[key].append(txn)
        ops.append(f"c{txn}")
    return History.parse(" ".join(ops))


@settings(max_examples=300, deadline=None)
@given(history=small_mv_history())
def test_property_mvsg_soundness_and_exact_characterization(history):
    """Three-way cross-check of the serializability machinery.

    * Soundness of the fast checker: acyclic MVSG under the version-number
      order implies a serial witness exists (the classic theorem).  The
      converse can fail for arbitrary histories — a blind writer may be
      serializable only under a different version order — which is why the
      exact characterization is checked separately.
    * Exactness of the any-order search: *some* version order yields an
      acyclic MVSG iff brute-force enumeration finds an equivalent serial
      single-version execution (Bernstein–Goodman).
    """
    fast = is_one_copy_serializable(history)
    slow = brute_force_one_copy_serializable(history)
    if fast:
        assert slow, f"MVSG says 1SR, brute force disagrees: {history}"
    try:
        exact = exists_acyclic_version_order(history, max_orders=500_000)
    except ValueError:
        return  # version-order space too large for this example; skip
    assert exact == slow, f"any-order MVSG search disagrees with enumeration: {history}"


# -- the definitional MVSG, kept as the reference the builder is held to --------

def reference_mvsg(history, version_order=None):
    """MVSG(H) straight from the Section 3.2 rule: every reads-from pair
    against every other writer of the key, one stored edge per rule edge."""
    projected = history.committed_projection()
    if version_order is None:
        version_order = version_order_by_number(projected)
    committed = projected.transactions()
    graph = Digraph()
    for txn in committed:
        graph.add_node(txn)
    for reader, writer, key in projected.reads_from():
        edge = sg_edge(reader, writer, committed)
        if edge is not None:
            graph.add_edge(edge[0], edge[1])
        order = list(version_order.get(key, ()))
        if writer not in order:
            continue  # aborted writer, or an order that omits T0: nothing to derive
        for src, dst, _kind in version_order_edges(
            reader, writer, order, lambda a, b: order.index(a) < order.index(b)
        ):
            graph.add_edge(src, dst)
    return graph


def least_topological_order(graph):
    """The lexicographically least topological order, by definition: take the
    smallest node none of whose predecessors is still waiting."""
    waiting, order = set(graph.nodes()), []
    while waiting:
        order.append(
            min(n for n in waiting if not any(graph.has_edge(m, n) for m in waiting))
        )
        waiting.remove(order[-1])
    return order


def assert_matches_reference(build, history, version_order=None):
    """``build(history, version_order)`` means exactly the reference graph:
    same nodes, same transaction-level edges, same least witness order, and
    any cycle it reports is a cycle of the reference."""
    graph = build(history, version_order)
    reference = reference_mvsg(history, version_order)
    assert set(graph.nodes()) == set(reference.nodes())
    assert set(graph.edges()) == set(reference.edges())
    assert len(graph.edges()) == len(set(graph.edges()))
    for src, dst in reference.edges():
        assert graph.has_edge(src, dst) and dst in graph.successors(src)
    cycle = graph.find_cycle()
    assert (cycle is None) == reference.is_acyclic() == graph.is_acyclic()
    if cycle is None:
        order = graph.topological_order(tie_break=lambda t: t)
        assert order == least_topological_order(reference)
    else:
        assert len(cycle) >= 3 and cycle[0] == cycle[-1]
        assert all(reference.has_edge(u, v) for u, v in zip(cycle, cycle[1:]))
        with pytest.raises(ValueError, match="cycle"):
            graph.topological_order(tie_break=lambda t: t)
    return graph


@st.composite
def wide_mv_history(draw):
    """:func:`small_mv_history` widened to everything a version order can
    meet: transactions finish in an order unrelated to their ids (so a reader
    may also write the key *earlier* in number order than the version it
    read, and a version may be read only by an earlier writer), some abort
    after others read their versions, a transaction may read its own write or
    read a key twice, and the version order may be any permutation of the
    writers -- T0 not necessarily first.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    keys = ["x", "y", "z"][: draw(st.integers(min_value=1, max_value=3))]
    written: dict[str, list[int]] = {key: [0] for key in keys}
    ops = []
    for txn in draw(st.permutations(range(1, n + 1))):
        for key in keys:
            action = draw(
                st.sampled_from(["skip", "skip", "read", "write", "rw", "own", "twice"])
            )
            if action in ("read", "rw", "twice"):
                ops.append(f"r{txn}[{key}_{draw(st.sampled_from(written[key]))}]")
            if action == "twice":
                ops.append(f"r{txn}[{key}_{draw(st.sampled_from(written[key]))}]")
            if action in ("write", "rw", "own"):
                ops.append(f"w{txn}[{key}_{txn}]")
                written[key].append(txn)
            if action == "own":
                ops.append(f"r{txn}[{key}_{txn}]")
        ops.append(f"{'a' if draw(st.integers(0, 9)) == 0 else 'c'}{txn}")
    history = History.parse(" ".join(ops))
    version_order = None
    if draw(st.booleans()):
        version_order = {
            key: list(draw(st.permutations(order)))
            for key, order in version_order_by_number(history).items()
        }
    return history, version_order


@settings(max_examples=600, deadline=None)
@given(case=wide_mv_history())
def test_property_builder_means_the_reference_graph(case):
    """The builder's graph and the checker's report against the definition."""
    history, version_order = case
    assert_matches_reference(multiversion_serialization_graph, history, version_order)
    reference = reference_mvsg(history)
    report = check_one_copy_serializable(history)
    assert report.serializable == reference.is_acyclic()
    assert report.transactions == len(history.committed())
    if report.serializable:
        assert report.cycle == []
        assert report.witness_order == least_topological_order(reference)
    else:
        assert report.witness_order == []
        assert report.cycle[0] == report.cycle[-1]
        assert all(
            reference.has_edge(u, v) for u, v in zip(report.cycle, report.cycle[1:])
        )


# -- the oracle above can fail: three plausible wrong constructions ---------------

def _forgetting_a_reader_may_be_a_writer(obj, order, readers_of):
    """Drops the rule's "k distinct from j": no reader is recognised in ``order``."""
    masked = {w: [("reader", r) for r in readers] for w, readers in readers_of.items()}
    for src, dst, kind in fan_version_order_edges(obj, order, masked):
        yield (src[1] if type(src) is tuple else src), dst, kind


def _linking_adjacent_versions(obj, order, readers_of):
    """The shortcut "a version order is a chain, so link each writer to the
    next": ``ww`` edges into versions nobody read, which the rule does not have."""
    yield from fan_version_order_edges(obj, order, readers_of)
    for earlier, later in zip(order, order[1:]):
        yield earlier, later, WW


def _skipping_t0(obj, order, readers_of):
    """Leaves the initial version out of the version order."""
    return fan_version_order_edges(obj, [w for w in order if w != 0], readers_of)


@pytest.mark.parametrize(
    "broken, history",
    [
        # T1 reads x then writes it: unrecognised, it is ordered before itself.
        (_forgetting_a_reader_may_be_a_writer, "r1[x_0] w1[x_1] c1"),
        # 1SR as 0 3 2 1; x_1 and x_2 are blind writes nobody read, and
        # linking them adds T1 -> T2 against T2 -> T1 (T1 read y from T2).
        (_linking_adjacent_versions, "r3[x_0] c3 w2[x_2] w2[y_2] c2 r1[y_2] w1[x_1] c1"),
        # The reader of the initial version must precede the overwriter.
        (_skipping_t0, "r1[x_0] c1 w2[x_2] c2"),
    ],
)
def test_a_wrong_construction_is_caught_by_the_reference(broken, history, monkeypatch):
    history = History.parse(history)
    assert_matches_reference(multiversion_serialization_graph, history)
    monkeypatch.setattr(mvsg, "fan_version_order_edges", broken)
    with pytest.raises(AssertionError):
        assert_matches_reference(multiversion_serialization_graph, history)


# -- size: what is stored grows with the operations, not with the versions --------

def chained_history(n_txns, n_keys=200, seed=0):
    """Each transaction reads the latest version of two keys and overwrites a third."""
    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(n_keys)]
    latest = dict.fromkeys(keys, 0)
    ops = []
    for txn in range(1, n_txns + 1):
        first, second, target = rng.sample(keys, 3)
        ops += [
            f"r{txn}[{first}_{latest[first]}]",
            f"r{txn}[{second}_{latest[second]}]",
            f"w{txn}[{target}_{txn}]",
            f"c{txn}",
        ]
        latest[target] = txn
    return History.parse(" ".join(ops))


def test_stored_edges_per_transaction_do_not_grow_with_the_history():
    short = check_one_copy_serializable(chained_history(2_000))
    long = check_one_copy_serializable(chained_history(20_000))
    assert short.serializable and long.serializable
    assert (short.transactions, long.transactions) == (2_000, 20_000)
    assert long.edges / long.transactions <= 12
    assert long.edges / long.transactions <= 1.25 * short.edges / short.transactions
    assert sorted(long.witness_order) == list(range(20_001))  # T0 and every txn, no fan


def test_no_fan_shows_through_the_graph():
    graph = multiversion_serialization_graph(chained_history(2_000))
    assert any(type(node) is Fan for node in graph._succ)  # the test has something to hide
    assert sorted(graph.nodes()) == list(range(2_001)) and len(graph) == 2_001
    assert graph.edge_count() < len(graph.edges())
    assert all(type(u) is int and type(v) is int for u, v in graph.edges())
    assert not any(node in graph for node in graph._succ if type(node) is Fan)
    # Write skew: both edges of the cycle run through a fan chain.
    skew = check_one_copy_serializable(
        History.parse("r1[x_0] r2[y_0] w1[y_1] w2[x_2] w3[x_3] w3[y_3] c1 c2 c3")
    )
    assert skew.cycle in ([1, 2, 1], [2, 1, 2])


# -- the reported cycle is the same in every process ------------------------------

def cycles_digest(wanted=100):
    """sha256 over the cycles reported for ``wanted`` random non-1SR histories
    whose keys are strings -- what :class:`NotSerializable`'s message and the
    fault drills' ``cycle [...]`` violation line are made of.  Transaction
    ids are sparse so that they collide in the graph's successor sets, whose
    iteration order then follows the order edges were added in."""
    rng = random.Random(20)
    keys = [f"key{i}" for i in range(6)]
    cycles = []
    while len(cycles) < wanted:
        written = {key: [0] for key in keys}
        ops = []
        for txn in sorted(rng.sample(range(1, 100), rng.randint(4, 12))):
            for key in rng.sample(keys, 2):
                ops.append(f"r{txn}[{key}_{rng.choice(written[key])}]")
            for key in rng.sample(keys, 2):
                ops.append(f"w{txn}[{key}_{txn}]")
                written[key].append(txn)
            ops.append(f"c{txn}")
        report = check_one_copy_serializable(History.parse(" ".join(ops)))
        if not report.serializable:
            cycles.append(report.cycle)
    return hashlib.sha256(repr(cycles).encode()).hexdigest()


def test_the_reported_cycle_does_not_depend_on_the_hash_seed():
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    digests = {
        subprocess.run(
            [sys.executable, __file__],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hashseed},
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for hashseed in ("0", "1")
    }
    assert len(digests) == 1 and len(digests.pop().strip()) == 64


if __name__ == "__main__":
    print(cycles_digest())
