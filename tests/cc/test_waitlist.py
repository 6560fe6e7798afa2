"""Tests for the generic per-key wait lists."""

from repro.cc.waitlist import WaitList
from repro.core.transaction import Transaction


def make_attempt(results: list, succeed_after: int = 0):
    """An attempt closure that fails `succeed_after` times, then completes."""
    state = {"calls": 0}

    def attempt() -> bool:
        state["calls"] += 1
        if state["calls"] > succeed_after:
            results.append(state["calls"])
            return True
        return False

    return attempt


def waiting_on(wl: WaitList, key) -> int:
    return len(wl._parked.get(key, ()))


class TestWaitList:
    def test_wake_redrives_parked_attempts(self):
        wl = WaitList()
        results = []
        txn = Transaction()
        wl.park("x", txn, make_attempt(results))
        assert waiting_on(wl, "x") == 1
        wl.wake(["x"])
        assert results == [1]
        assert wl.is_empty()

    def test_still_blocked_attempts_reparked(self):
        wl = WaitList()
        results = []
        txn = Transaction()
        wl.park("x", txn, make_attempt(results, succeed_after=2))
        wl.wake(["x"])      # attempt 1: still blocked
        assert waiting_on(wl, "x") == 1
        wl.wake(["x"])      # attempt 2: still blocked
        wl.wake(["x"])      # attempt 3: completes
        assert results == [3]
        assert wl.is_empty()

    def test_wake_unrelated_key_is_noop(self):
        wl = WaitList()
        results = []
        wl.park("x", Transaction(), make_attempt(results))
        wl.wake(["y"])
        assert results == []
        assert waiting_on(wl, "x") == 1

    def test_multiple_waiters_fifo(self):
        wl = WaitList()
        order = []
        for i in range(3):
            txn = Transaction()
            wl.park("x", txn, lambda i=i: order.append(i) or True)
        wl.wake(["x"])
        assert order == [0, 1, 2]

    def test_drop_transaction_removes_all_its_entries(self):
        wl = WaitList()
        victim, other = Transaction(), Transaction()
        results = []
        wl.park("x", victim, make_attempt(results))
        wl.park("y", victim, make_attempt(results))
        wl.park("x", other, make_attempt(results))
        wl.drop_transaction(victim)
        assert waiting_on(wl, "x") == 1
        assert waiting_on(wl, "y") == 0
        wl.wake(["x", "y"])
        assert len(results) == 1, "only the survivor's attempt ran"

    def test_fifo_order_preserved_across_repark(self):
        """Still-blocked waiters re-park in their original FIFO order."""
        wl = WaitList()
        order = []
        gate = {"open": False}

        def waiter(label):
            def attempt() -> bool:
                if gate["open"]:
                    order.append(label)
                    return True
                return False

            return attempt

        for label in ("a", "b", "c"):
            wl.park("x", Transaction(), waiter(label))
        wl.wake(["x"])  # everyone still blocked: re-parked, order intact
        assert waiting_on(wl, "x") == 3
        gate["open"] = True
        wl.wake(["x"])
        assert order == ["a", "b", "c"]

    def test_wake_during_wake_is_safe(self):
        """An attempt that parks a new waiter on the same key."""
        wl = WaitList()
        ran = []
        txn_a, txn_b = Transaction(), Transaction()

        def cascading() -> bool:
            ran.append("a")
            wl.park("x", txn_b, lambda: ran.append("b") or True)
            return True

        wl.park("x", txn_a, cascading)
        wl.wake(["x"])
        assert ran == ["a"]
        wl.wake(["x"])
        assert ran == ["a", "b"]
