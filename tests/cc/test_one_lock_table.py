"""The flat manager is the granular manager's one-level case.

Both are :class:`~repro.cc.lock_manager.LockTable` with a different mode
algebra, so the same traffic — the flat manager on keys, the granular one on
depth-1 paths with S/X — must leave the two in the same state after every
step: same holders, same queue order, same waits-for edges, same failed
futures, same deadlock count.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.granular import GranularLockManager, GranularMode
from repro.cc.lock_manager import LockManager, LockTable
from repro.cc.locks import LockMode
from repro.errors import AbortReason, TransactionAborted

KEYS = ["a", "b", "c"]
N_TXNS = 5
MODES = {"S": (LockMode.SHARED, GranularMode.S), "X": (LockMode.EXCLUSIVE, GranularMode.X)}


def test_both_managers_share_every_table_method():
    shared = {
        name
        for name in vars(LockTable)
        if callable(getattr(LockTable, name)) and not name.startswith("__")
    }
    assert {"acquire", "release_all", "expire_due", "cancel_request", "crash"} <= shared
    assert {n for n in shared if n in vars(LockManager)} == {"held_by"}
    assert {n for n in shared if n in vars(GranularLockManager)} == {
        "acquire", "_release_order"
    }


def snapshot(lm, resource):
    return {
        "holders": {k: {t: m.value for t, m in lm.holders(resource(k)).items()} for k in KEYS},
        "queues": {k: lm.waiting(resource(k)) for k in KEYS},
        "edges": lm.waits_for.edges(),
        "deadlocks": lm.deadlocks,
        "blocks": lm.blocks,
        "grants": lm.grants,
    }


@settings(max_examples=150, deadline=None)
@given(data=st.data(), policy=st.sampled_from(["requester", "youngest", "oldest"]))
def test_property_flat_and_depth_one_granular_stay_identical(data, policy):
    flat = LockManager(victim_policy=policy)
    deep = GranularLockManager(victim_policy=policy)
    futures: dict[int, tuple] = {}  # txn -> (flat future, granular future) while pending
    now = 0.0

    def settle():
        """Pending requests resolve or fail in lock-step; a failed
        requester gives up (as a scheduler would abort it)."""
        for txn, (f, g) in list(futures.items()):
            assert (f.pending, f.failed, type(f.error)) == (g.pending, g.failed, type(g.error))
        for txn in [t for t, (f, _) in futures.items() if not f.pending]:
            failed = futures.pop(txn)[0].failed
            if failed:
                flat.release_all(txn)
                deep.release_all(txn)
                return settle()  # the release may have granted others

    for _ in range(30):
        free = [t for t in range(1, N_TXNS + 1) if t not in futures]
        action = data.draw(st.sampled_from(["acquire", "acquire", "release", "expire", "cancel"]))
        if action == "acquire" and free:
            txn = data.draw(st.sampled_from(free))
            key = data.draw(st.sampled_from(KEYS))
            mode = MODES[data.draw(st.sampled_from("SX"))]
            deadline = data.draw(st.one_of(st.none(), st.floats(0.0, 30.0)))
            futures[txn] = (
                flat.acquire(txn, key, mode[0], deadline=deadline),
                deep.acquire(txn, (key,), mode[1], deadline=deadline),
            )
        elif action == "release":
            txn = data.draw(st.integers(1, N_TXNS))
            flat.release_all(txn)
            deep.release_all(txn)
            futures.pop(txn, None)
        elif action == "expire":
            now += data.draw(st.floats(0.0, 10.0))
            assert flat.expire_due(now) == deep.expire_due(now)
        elif action == "cancel":
            txn = data.draw(st.integers(1, N_TXNS))
            error = TransactionAborted(txn, AbortReason.SITE_FAILURE)
            assert flat.cancel_request(txn, error) == deep.cancel_request(txn, error)
        settle()
        assert snapshot(flat, lambda k: k) == snapshot(deep, lambda k: (k,))
        assert flat.held_by(1) == {path[0] for path in deep.held_by(1)}

    for txn in range(1, N_TXNS + 1):
        flat.release_all(txn)
        deep.release_all(txn)
    assert flat.is_idle() and deep.is_idle()
    assert not flat.waits_for.waiters() and not deep.waits_for.waiters()
