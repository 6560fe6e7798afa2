"""Detection from the requester finds exactly what the full search finds.

A block looks for a deadlock by walking the waits-for graph from the
requester and runs the full search only when the walk comes back or another
waiter gained an edge unsearched.  The reference here is the detection that
preceded it: a graph that searches every edge from every node on every wait.
The same hypothesis traffic — all three victim policies, the granular
manager, two managers sharing one graph, requests issued from inside a grant
callback and aborts that release synchronously from inside a failure — must
leave both in the same state after every step: same ``on_deadlock``
arguments, edges, holders, queues, outcomes and counters.
"""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cc.deadlock as deadlock
from repro.cc.deadlock import WaitsForGraph
from repro.cc.granular import GranularLockManager, GranularMode
from repro.cc.lock_manager import LockManager
from repro.cc.locks import LockMode
from repro.errors import AbortReason, DeadlockError, TransactionAborted

N_TXNS = 6
FLAT = (["a", "b", "c"], [LockMode.SHARED, LockMode.EXCLUSIVE])
GRANULAR = ([("db",), ("db", "a"), ("db", "b"), ("db", "c")], list(GranularMode))


class FullSearchGraph(WaitsForGraph):
    """The reference: every wait searches the whole graph."""

    def find_cycle(self, requester=None):
        return super().find_cycle()


class World:
    """One side of the comparison: its managers, and a scheduler's reflexes —
    a failed request aborts its transaction at once (every manager releases
    it), a granted one may issue the transaction's next request from inside
    the grant."""

    def __init__(self, kind: str, policy: str, reference: bool):
        self.deadlocks: list[tuple[int, int, list[int]]] = []
        self.outcomes: list[tuple[int, str]] = []
        graph_type = FullSearchGraph if reference else WaitsForGraph
        if kind == "shared":
            graph = graph_type()
            self.managers = [
                LockManager(waits_for=graph, on_deadlock=partial(self.note, index))
                for index in range(2)
            ]
            return
        manager_type = GranularLockManager if kind == "granular" else LockManager
        manager = manager_type(victim_policy=policy, on_deadlock=partial(self.note, 0))
        if reference:
            manager.waits_for = graph_type()
        self.managers = [manager]

    def note(self, index: int, victim: int, cycle: list[int]) -> None:
        self.deadlocks.append((index, victim, list(cycle)))

    def acquire(self, txn, index, resource, mode, deadline=None, then=None):
        future = self.managers[index].acquire(txn, resource, mode, deadline=deadline)
        future.add_callback(partial(self.settled, txn, then))

    def settled(self, txn, then, future) -> None:
        if future.failed:
            self.outcomes.append((txn, type(future.error).__name__))
            self.release(txn)
        else:
            self.outcomes.append((txn, "granted"))
            if then is not None:
                self.acquire(txn, *then)

    def release(self, txn: int) -> None:
        for manager in self.managers:
            manager.release_all(txn)

    def pending(self) -> set[int]:
        return {txn for manager in self.managers for txn in manager._pending}

    def snapshot(self, resources) -> dict:
        return {
            "deadlocks": self.deadlocks,
            "outcomes": self.outcomes,
            "edges": [m.waits_for.edges() for m in self.managers],
            "holders": [
                {r: {t: h.value for t, h in m.holders(r).items()} for r in resources}
                for m in self.managers
            ],
            "queues": [{r: m.waiting(r) for r in resources} for m in self.managers],
            "counters": [(m.blocks, m.deadlocks, m.grants) for m in self.managers],
            "detections": [m.waits_for.detections for m in self.managers],
        }


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["flat", "granular", "shared"]),
    policy=st.sampled_from(["requester", "youngest", "oldest"]),
)
def test_property_detection_from_the_requester_matches_the_full_search(data, kind, policy):
    if kind == "shared":
        policy = "requester"  # the one policy a shared graph allows
    resources, modes = GRANULAR if kind == "granular" else FLAT
    sides = [World(kind, policy, reference) for reference in (False, True)]
    new, reference = sides
    n_managers = len(new.managers)
    request = st.tuples(
        st.integers(0, n_managers - 1), st.sampled_from(resources), st.sampled_from(modes)
    )
    now = 0.0

    for _ in range(40):
        action = data.draw(
            st.sampled_from(["acquire", "acquire", "acquire", "release", "expire", "cancel"])
        )
        if action == "acquire":
            free = [t for t in range(1, N_TXNS + 1) if t not in new.pending()]
            if not free:
                continue
            txn = data.draw(st.sampled_from(free))
            index, resource, mode = data.draw(request)
            deadline = data.draw(st.one_of(st.none(), st.floats(0.0, 30.0)))
            then = data.draw(st.one_of(st.none(), request))
            for side in sides:
                side.acquire(txn, index, resource, mode, deadline, then)
        elif action == "release":
            txn = data.draw(st.integers(1, N_TXNS))
            for side in sides:
                side.release(txn)
        elif action == "expire":
            now += data.draw(st.floats(0.0, 10.0))
            expired = [[m.expire_due(now) for m in side.managers] for side in sides]
            assert expired[0] == expired[1]
        else:
            txn = data.draw(st.integers(1, N_TXNS))
            error = TransactionAborted(txn, AbortReason.SITE_FAILURE)
            cancelled = [[m.cancel_request(txn, error) for m in side.managers] for side in sides]
            assert cancelled[0] == cancelled[1]
        assert new.snapshot(resources) == reference.snapshot(resources)

    for txn in range(1, N_TXNS + 1):
        for side in sides:
            side.release(txn)
    assert all(m.is_idle() for side in sides for m in side.managers)
    assert not new.managers[0].waits_for.waiters()


def test_a_cycle_an_eviction_leaves_is_found_at_the_next_wait():
    """Under ``youngest`` the requester T1 closes two cycles, T1-T2 and
    T1-T3; evicting T2 leaves the second.  The next wait, by T4 and far from
    it, must still find it, as the full search always did."""
    S, X = LockMode.SHARED, LockMode.EXCLUSIVE
    sides = [World("flat", "youngest", reference) for reference in (False, True)]
    for side in sides:
        side.acquire(1, 0, "a", X)
        side.acquire(2, 0, "b", S)
        side.acquire(3, 0, "b", S)
        side.acquire(2, 0, "a", X)  # T2 -> T1
        side.acquire(3, 0, "a", X)  # T3 -> T1, T2
        side.acquire(1, 0, "b", X)  # T1 -> T2, T3: two cycles, T2 evicted
        side.acquire(5, 0, "c", X)
        side.acquire(4, 0, "c", X)  # T4 -> T5: no cycle of its own
    new, reference = sides
    assert new.snapshot(FLAT[0]) == reference.snapshot(FLAT[0])
    assert [victim for _, victim, _ in new.deadlocks] == [2, 3]


def test_a_request_from_a_grant_callback_that_closes_a_cycle_fails_at_once():
    """T2's grant of ``a`` (T1 released it) issues T2's next request from
    inside the grant scan; it closes T2 -> T3 -> T2 and fails there."""
    X = LockMode.EXCLUSIVE
    sides = [World("flat", "requester", reference) for reference in (False, True)]
    for side in sides:
        side.acquire(1, 0, "a", X)
        side.acquire(2, 0, "b", X)
        side.acquire(3, 0, "c", X)
        side.acquire(3, 0, "b", X)  # T3 -> T2
        side.acquire(2, 0, "a", X, then=(0, "c", X))  # T2 -> T1
        side.release(1)  # grants T2 "a"; T2 then asks for "c": T2 -> T3 -> T2
    new, reference = sides
    assert new.snapshot(FLAT[0]) == reference.snapshot(FLAT[0])
    assert new.deadlocks == [(0, 2, [3, 2, 3])]
    assert (2, DeadlockError.__name__) in new.outcomes


def test_a_wait_that_closes_no_cycle_builds_no_search_graph(monkeypatch):
    """The walk from the requester decides a wait with no cycle: the full
    search's graph is built only to report a cycle."""
    built = []

    class CountingDigraph(deadlock.Digraph):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(deadlock, "Digraph", CountingDigraph)
    X = LockMode.EXCLUSIVE
    lm = LockManager()
    lm.acquire(1, "a", X)
    lm.acquire(2, "b", X)
    assert lm.acquire(2, "a", X).pending  # T2 -> T1
    assert lm.acquire(3, "b", X).pending  # T3 -> T2
    assert lm.waits_for.detections == 2 and built == []
    assert lm.acquire(1, "b", X).failed  # T1 -> T2 -> T1
    assert len(built) == 1 and lm.deadlocks == 1
