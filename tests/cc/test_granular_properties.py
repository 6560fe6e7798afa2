"""Property-based fuzzing of the multi-granularity lock manager."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.granular import (
    GranularLockManager,
    GranularMode as M,
    granular_compatible,
)
from repro.errors import DeadlineExceeded, SiteUnavailable

KEYS = ["a", "b"]
PATHS = [("db",)] + [("db", k) for k in KEYS]
MODES = [M.IS, M.IX, M.S, M.SIX, M.X]
N_TXNS = 4


def check_invariants(lm: GranularLockManager) -> None:
    # Pairwise compatibility of all grants at every node (conversions may
    # leave a holder stronger than others would admit for a *new* request,
    # but grants present together must be mutually compatible at grant time;
    # we check the weaker sound invariant: no X coexists with anything).
    for path in PATHS:
        holders = lm.holders(path)
        modes = list(holders.values())
        if M.X in modes:
            assert len(modes) == 1, f"X shared at {path}: {holders}"
        if M.SIX in modes:
            assert all(m in (M.SIX, M.IS) for m in modes), holders
    # Intention discipline: any leaf lock implies some lock at the root.
    for txn in range(1, N_TXNS + 1):
        held = lm.held_by(txn)
        if any(len(path) > 1 for path in held):
            assert ("db",) in held, f"T{txn} holds leaves without root intent"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_random_granular_traffic(data):
    lm = GranularLockManager()
    pending: dict[int, object] = {}
    now = 0.0
    for _ in range(25):
        free = [t for t in range(1, N_TXNS + 1) if t not in pending]
        action = data.draw(st.sampled_from(["acquire", "release", "expire", "cancel"]))
        if action == "acquire" and free:
            txn = data.draw(st.sampled_from(free))
            path = data.draw(st.sampled_from(PATHS))
            mode = data.draw(st.sampled_from(MODES))
            deadline = data.draw(st.one_of(st.none(), st.floats(0.0, 25.0)))
            future = lm.acquire(txn, path, mode, deadline=deadline)
            if future.pending:
                pending[txn] = future
            elif future.failed:
                lm.release_all(txn)
        elif action == "expire":
            now += data.draw(st.floats(0.0, 10.0))
            for txn in lm.expire_due(now):
                assert isinstance(pending[txn].error, DeadlineExceeded)
        elif action == "cancel":
            txn = data.draw(st.integers(1, N_TXNS))
            assert lm.cancel_request(txn, SiteUnavailable()) == (txn in pending)
        else:
            txn = data.draw(st.integers(1, N_TXNS))
            lm.release_all(txn)
            pending.pop(txn, None)
        for txn, future in list(pending.items()):
            if not future.pending:
                del pending[txn]
                if future.failed:
                    lm.release_all(txn)
        check_invariants(lm)
    for txn in range(1, N_TXNS + 1):
        lm.release_all(txn)
    assert lm.is_idle()
    assert not lm.waits_for.waiters()


@settings(max_examples=100, deadline=None)
@given(
    modes=st.lists(st.sampled_from(MODES), min_size=2, max_size=6),
)
def test_property_grants_at_a_node_were_pairwise_compatible(modes):
    """Sequentially granted (non-blocked) requests are pairwise compatible."""
    lm = GranularLockManager()
    granted: list[M] = []
    for txn, mode in enumerate(modes, start=1):
        future = lm.acquire(txn, ("db", "x"), mode)
        if future.done and not future.failed:
            # Every previously granted mode must admit this one.
            assert all(granular_compatible(g, mode) for g in granted)
            granted.append(mode)
        lm._withdraw(txn) if future.pending else None
