"""Tests for the strict 2PL lock manager and deadlock detection."""

import pytest

from repro.cc.deadlock import WaitsForGraph, choose_victim
from repro.cc.lock_manager import LockManager
from repro.cc.locks import LockMode, compatible
from repro.errors import DeadlockError, ProtocolError

S, X = LockMode.SHARED, LockMode.EXCLUSIVE


class TestModes:
    def test_compatibility_matrix(self):
        assert compatible(S, S)
        assert not compatible(S, X)
        assert not compatible(X, S)
        assert not compatible(X, X)

    def test_covers(self):
        assert X.covers(S)
        assert X.covers(X)
        assert S.covers(S)
        assert not S.covers(X)


class TestGrantImmediate:
    def test_first_acquire_granted(self):
        lm = LockManager()
        assert lm.acquire(1, "x", X).done
        assert lm.holders("x") == {1: X}
        assert lm.held_by(1) == {"x"}

    def test_shared_coexistence(self):
        lm = LockManager()
        assert lm.acquire(1, "x", S).done
        assert lm.acquire(2, "x", S).done
        assert set(lm.holders("x")) == {1, 2}

    def test_reentrant_same_mode(self):
        lm = LockManager()
        lm.acquire(1, "x", S).result()
        assert lm.acquire(1, "x", S).done

    def test_x_covers_s_request(self):
        lm = LockManager()
        lm.acquire(1, "x", X).result()
        assert lm.acquire(1, "x", S).done
        assert lm.holders("x") == {1: X}

    def test_sole_holder_upgrade_granted(self):
        lm = LockManager()
        lm.acquire(1, "x", S).result()
        assert lm.acquire(1, "x", X).done
        assert lm.holders("x") == {1: X}


class TestBlocking:
    def test_x_blocks_behind_s(self):
        lm = LockManager()
        lm.acquire(1, "x", S).result()
        f = lm.acquire(2, "x", X)
        assert f.pending
        assert lm.blocks == 1
        assert lm.waiting("x") == [2]

    def test_release_grants_waiter(self):
        lm = LockManager()
        lm.acquire(1, "x", X).result()
        f = lm.acquire(2, "x", S)
        assert f.pending
        lm.release_all(1)
        assert f.done
        assert lm.holders("x") == {2: S}

    def test_fifo_no_overtaking(self):
        """An S request queued behind an X waiter must not overtake it."""
        lm = LockManager()
        lm.acquire(1, "x", S).result()
        fx = lm.acquire(2, "x", X)
        fs = lm.acquire(3, "x", S)
        assert fx.pending and fs.pending
        lm.release_all(1)
        assert fx.done, "X waiter granted first"
        assert fs.pending, "S waiter must wait behind the X holder"
        lm.release_all(2)
        assert fs.done

    def test_compatible_prefix_granted_together(self):
        lm = LockManager()
        lm.acquire(1, "x", X).result()
        f2 = lm.acquire(2, "x", S)
        f3 = lm.acquire(3, "x", S)
        lm.release_all(1)
        assert f2.done and f3.done

    def test_upgrade_waits_for_other_readers(self):
        lm = LockManager()
        lm.acquire(1, "x", S).result()
        lm.acquire(2, "x", S).result()
        up = lm.acquire(1, "x", X)
        assert up.pending
        lm.release_all(2)
        assert up.done
        assert lm.holders("x") == {1: X}

    def test_upgrade_jumps_queue(self):
        lm = LockManager()
        lm.acquire(1, "x", S).result()
        lm.acquire(2, "x", S).result()
        f3 = lm.acquire(3, "x", X)       # ordinary waiter
        up = lm.acquire(1, "x", X)       # upgrade: goes in front
        lm.release_all(2)
        assert up.done, "upgrade granted as soon as requester is sole holder"
        assert f3.pending
        lm.release_all(1)
        assert f3.done

    def test_one_pending_request_per_txn_enforced(self):
        lm = LockManager()
        lm.acquire(1, "x", X).result()
        lm.acquire(2, "x", X)
        with pytest.raises(ProtocolError, match="pending lock request"):
            lm.acquire(2, "y", S)

    def test_cancel_pending_via_release_all(self):
        lm = LockManager()
        lm.acquire(1, "x", X).result()
        f2 = lm.acquire(2, "x", X)
        f3 = lm.acquire(3, "x", S)
        lm.release_all(2)  # cancels T2's queued request
        assert f2.pending  # future simply never resolves; txn moved on
        lm.release_all(1)
        assert f3.done


class TestDeadlock:
    def test_two_txn_deadlock_detected(self):
        lm = LockManager()
        lm.acquire(1, "x", X).result()
        lm.acquire(2, "y", X).result()
        f1 = lm.acquire(1, "y", X)
        assert f1.pending
        f2 = lm.acquire(2, "x", X)  # closes the cycle
        assert f2.failed
        assert isinstance(f2.error, DeadlockError)
        assert lm.deadlocks == 1
        assert f1.pending, "non-victim keeps waiting"

    def test_victim_release_unblocks_survivor(self):
        lm = LockManager()
        lm.acquire(1, "x", X).result()
        lm.acquire(2, "y", X).result()
        f1 = lm.acquire(1, "y", X)
        lm.acquire(2, "x", X)  # T2 becomes victim
        lm.release_all(2)      # scheduler aborts T2
        assert f1.done

    def test_youngest_victim_policy(self):
        lm = LockManager(victim_policy="youngest")
        lm.acquire(1, "x", X).result()
        lm.acquire(2, "y", X).result()
        f1 = lm.acquire(1, "y", X)
        f2 = lm.acquire(2, "x", X)
        # T2 is younger (larger id): it is the victim under both policies here.
        assert f2.failed and f1.pending

    def test_oldest_victim_policy(self):
        events = []
        lm = LockManager(victim_policy="oldest", on_deadlock=lambda v, c: events.append(v))
        lm.acquire(1, "x", X).result()
        lm.acquire(2, "y", X).result()
        f1 = lm.acquire(1, "y", X)
        f2 = lm.acquire(2, "x", X)
        assert events == [1]
        assert f1.failed and f2.pending

    def test_upgrade_deadlock(self):
        """Two S holders both upgrading is the classic conversion deadlock."""
        lm = LockManager()
        lm.acquire(1, "x", S).result()
        lm.acquire(2, "x", S).result()
        f1 = lm.acquire(1, "x", X)
        assert f1.pending
        f2 = lm.acquire(2, "x", X)
        assert f2.failed
        lm.release_all(2)
        assert f1.done

    def test_three_txn_cycle(self):
        lm = LockManager()
        lm.acquire(1, "a", X).result()
        lm.acquire(2, "b", X).result()
        lm.acquire(3, "c", X).result()
        lm.acquire(1, "b", X)
        lm.acquire(2, "c", X)
        f3 = lm.acquire(3, "a", X)
        assert f3.failed
        assert set(f3.error.cycle) >= {1, 2, 3}

    def test_on_block_callback(self):
        blocked = []
        lm = LockManager(on_block=lambda t, k: blocked.append((t, k)))
        lm.acquire(1, "x", X).result()
        lm.acquire(2, "x", S)
        assert blocked == [(2, "x")]


class TestReleaseAll:
    def test_idle_after_full_release(self):
        lm = LockManager()
        lm.acquire(1, "x", X).result()
        lm.acquire(1, "y", S).result()
        lm.release_all(1)
        assert lm.is_idle()
        assert lm.held_by(1) == set()

    def test_release_without_locks_is_noop(self):
        lm = LockManager()
        lm.release_all(99)
        assert lm.is_idle()


class TestWaitsForGraph:
    def test_counted_edges(self):
        # Waiting on the same holder for two reasons is one edge.
        g = WaitsForGraph()
        g.add(1, 2)
        g.add(1, 2)
        assert g.edges() == [(1, 2)]
        g.remove_waiter(1)
        assert g.edges() == []

    def test_self_edges_ignored(self):
        g = WaitsForGraph()
        g.add(1, 1)
        assert g.edges() == []

    def test_remove_waiter(self):
        g = WaitsForGraph()
        g.add(1, 2)
        g.add(1, 3)
        g.remove_waiter(1)
        assert g.edges() == []
        assert not g.is_waiting(1)

    def test_find_cycle(self):
        g = WaitsForGraph()
        g.add(1, 2)
        g.add(2, 1)
        assert g.find_cycle() is not None


class TestChooseVictim:
    def test_requester(self):
        assert choose_victim([1, 2, 1], "requester", requester=2) == 2

    def test_requester_fallback_to_youngest(self):
        assert choose_victim([1, 2, 1], "requester", requester=99) == 2

    def test_youngest_and_oldest(self):
        assert choose_victim([3, 7, 5, 3], "youngest", requester=3) == 7
        assert choose_victim([3, 7, 5, 3], "oldest", requester=3) == 3

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown victim policy"):
            choose_victim([1, 2, 1], "coinflip", requester=1)
